//! Row storage: tables and the database (catalog + data).
//!
//! A [`Table`] stores rows either in memory (`Vec<Vec<Value>>`, the
//! default) or in slotted pages behind a [`BufferPool`]
//! ([`Backend::Paged`], optionally file-backed). Both backends expose the
//! same append/scan/fetch surface and produce identical row orders, so
//! the engine — and therefore published documents — cannot tell them
//! apart. Tables also own their [`SecondaryIndex`]es, maintained on every
//! insert and described by the schema's [`IndexDef`]s so prepared plans
//! can select index access paths from the catalog alone.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::error::{Error, Result};
use crate::index::SecondaryIndex;
use crate::schema::{Catalog, IndexDef, IndexKind, TableSchema};
use crate::storage::{
    decode_row, encode_row, BufferPool, FilePageStore, MemPageStore, Page, PageId, PoolStats,
};
use crate::value::Value;

/// Storage backend for the tables of a [`Database`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Rows in a plain in-memory vector (the default).
    #[default]
    Memory,
    /// Rows in slotted pages behind a buffer pool.
    Paged {
        /// Buffer-pool capacity in frames (pages), per table. Minimum 1.
        pool_pages: usize,
        /// Keep pages in a real temporary file instead of memory.
        file_backed: bool,
    },
}

impl Backend {
    /// A paged backend with a default-sized pool, in memory.
    pub fn paged() -> Self {
        Backend::Paged {
            pool_pages: 64,
            file_backed: false,
        }
    }

    /// A paged backend with a default-sized pool over a temp file.
    pub fn paged_file() -> Self {
        Backend::Paged {
            pool_pages: 64,
            file_backed: true,
        }
    }
}

/// Rows in slotted pages: the page list, one `(page, slot)` location per
/// row id, and the buffer pool guarding resident frames. The pool sits
/// behind a mutex so `&Table` scans stay safe across publisher threads.
#[derive(Debug)]
struct PagedRows {
    pool: Mutex<BufferPool>,
    pages: Vec<PageId>,
    locs: Vec<(u32, u16)>,
    pool_pages: usize,
    file_backed: bool,
}

/// `row` encoded as one page cell, or a storage error when it exceeds a
/// page's capacity.
fn page_cell(row: &[Value]) -> Result<Vec<u8>> {
    let mut cell = Vec::new();
    encode_row(row, &mut cell);
    if cell.len() > Page::max_cell() {
        return Err(Error::Storage {
            reason: format!(
                "row of {} bytes exceeds page capacity of {}",
                cell.len(),
                Page::max_cell()
            ),
        });
    }
    Ok(cell)
}

impl PagedRows {
    fn new(pool_pages: usize, file_backed: bool) -> Result<Self> {
        let store: Box<dyn crate::storage::PageStore> = if file_backed {
            Box::new(FilePageStore::temp()?)
        } else {
            Box::new(MemPageStore::new())
        };
        Ok(PagedRows {
            pool: Mutex::new(BufferPool::new(store, pool_pages)),
            pages: Vec::new(),
            locs: Vec::new(),
            pool_pages,
            file_backed,
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufferPool> {
        self.pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn insert(&mut self, row: &[Value]) -> Result<()> {
        let cell = page_cell(row)?;
        let pool = self
            .pool
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&pid) = self.pages.last() {
            let f = pool.pin(pid)?;
            let slot = pool.page_mut(f).insert(&cell);
            pool.unpin(f, slot.is_some());
            if let Some(slot) = slot {
                self.locs.push((self.pages.len() as u32 - 1, slot as u16));
                return Ok(());
            }
        }
        let pid = pool.allocate()?;
        let f = pool.pin(pid)?;
        let slot = pool
            .page_mut(f)
            .insert(&cell)
            .expect("row fits in an empty page");
        pool.unpin(f, true);
        self.pages.push(pid);
        self.locs.push((self.pages.len() as u32 - 1, slot as u16));
        Ok(())
    }

    /// Decodes every row of one page (in slot order = insertion order).
    fn page_rows(&self, page_idx: usize) -> Result<Vec<Vec<Value>>> {
        let mut pool = self.lock();
        let f = pool.pin(self.pages[page_idx])?;
        let page = pool.page(f);
        let mut rows = Vec::with_capacity(page.slot_count());
        let mut err = None;
        for s in 0..page.slot_count() {
            match page.cell(s).and_then(decode_row) {
                Ok(row) => rows.push(row),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        pool.unpin(f, false);
        match err {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }

    fn fetch(&self, rid: usize) -> Result<Vec<Value>> {
        let (page_idx, slot) = self.locs[rid];
        let mut pool = self.lock();
        let f = pool.pin(self.pages[page_idx as usize])?;
        let row = pool.page(f).cell(slot as usize).and_then(decode_row);
        pool.unpin(f, false);
        row
    }
}

#[derive(Debug)]
enum RowStore {
    Mem(Vec<Vec<Value>>),
    Paged(PagedRows),
}

/// A table: schema, rows, and secondary indexes.
#[derive(Debug)]
pub struct Table {
    /// The table's schema (including its [`IndexDef`]s).
    pub schema: TableSchema,
    store: RowStore,
    indexes: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates an empty in-memory table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table::with_backend(schema, Backend::Memory).expect("memory backend is infallible")
    }

    /// Creates an empty table on `backend`. Index structures are built for
    /// every [`IndexDef`] already declared on the schema.
    pub fn with_backend(schema: TableSchema, backend: Backend) -> Result<Self> {
        let store = match backend {
            Backend::Memory => RowStore::Mem(Vec::new()),
            Backend::Paged {
                pool_pages,
                file_backed,
            } => RowStore::Paged(PagedRows::new(pool_pages, file_backed)?),
        };
        let mut indexes = Vec::new();
        for def in &schema.indexes {
            let column = schema
                .column_index(&def.column)
                .ok_or_else(|| Error::Storage {
                    reason: format!(
                        "index on unknown column {:?} of table {:?}",
                        def.column, schema.name
                    ),
                })?;
            indexes.push(SecondaryIndex::new(column, def.kind));
        }
        Ok(Table {
            schema,
            store,
            indexes,
        })
    }

    /// The backend this table stores rows on.
    pub fn backend(&self) -> Backend {
        match &self.store {
            RowStore::Mem(_) => Backend::Memory,
            RowStore::Paged(p) => Backend::Paged {
                pool_pages: p.pool_pages,
                file_backed: p.file_backed,
            },
        }
    }

    /// Checks that `row` can be stored — the schema's arity, types and
    /// NOT NULL constraints and, on the paged backend, the page capacity —
    /// without storing it.
    pub fn check_insert(&self, row: &[Value]) -> Result<()> {
        self.schema.check_row(row)?;
        if let RowStore::Paged(_) = self.store {
            page_cell(row)?;
        }
        Ok(())
    }

    /// Appends one row after validating it against the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let rid = self.len();
        for idx in &mut self.indexes {
            idx.insert(&row, rid);
        }
        match &mut self.store {
            RowStore::Mem(rows) => {
                rows.push(row);
                Ok(())
            }
            RowStore::Paged(p) => p.insert(&row),
        }
    }

    /// Declares and builds a secondary index over `column`.
    pub fn create_index(&mut self, column: &str, kind: IndexKind) -> Result<()> {
        let pos = self
            .schema
            .column_index(column)
            .ok_or_else(|| Error::UnknownColumn {
                reference: format!("{}.{column}", self.schema.name),
            })?;
        if self.schema.index_on(column).is_some() {
            return Err(Error::Storage {
                reason: format!(
                    "table {:?} already has an index on {column:?}",
                    self.schema.name
                ),
            });
        }
        let mut idx = SecondaryIndex::new(pos, kind);
        for (rid, row) in self.rows().iter().enumerate() {
            idx.insert(row, rid);
        }
        self.schema.indexes.push(IndexDef {
            column: column.to_owned(),
            kind,
        });
        self.indexes.push(idx);
        Ok(())
    }

    /// The index over schema column position `column`, if one exists.
    pub fn index_for(&self, column: usize) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|i| i.column() == column)
    }

    /// The stored rows, materialized if paged.
    ///
    /// # Panics
    /// Panics if the paged store is corrupted (a storage-layer bug, not a
    /// data error). The streaming [`Table::scan`] is the engine's path.
    pub fn rows(&self) -> std::borrow::Cow<'_, [Vec<Value>]> {
        match &self.store {
            RowStore::Mem(rows) => std::borrow::Cow::Borrowed(rows),
            RowStore::Paged(p) => {
                let mut all = Vec::with_capacity(p.locs.len());
                for i in 0..p.pages.len() {
                    all.extend(p.page_rows(i).expect("paged store corrupted"));
                }
                std::borrow::Cow::Owned(all)
            }
        }
    }

    /// Streams rows in insertion order without materializing the whole
    /// table: paged backends decode one page at a time through the buffer
    /// pool, memory backends borrow.
    ///
    /// # Panics
    /// Panics if the paged store is corrupted.
    pub fn scan(&self) -> RowScan<'_> {
        RowScan {
            inner: match &self.store {
                RowStore::Mem(rows) => ScanInner::Mem(rows.iter()),
                RowStore::Paged(p) => ScanInner::Paged {
                    rows: p,
                    next_page: 0,
                    buf: Vec::new().into_iter(),
                },
            },
        }
    }

    /// Fetches one row by id (an index-lookup candidate).
    ///
    /// # Panics
    /// Panics on an out-of-range id or a corrupted paged store.
    pub fn fetch_row(&self, rid: usize) -> Vec<Value> {
        match &self.store {
            RowStore::Mem(rows) => rows[rid].clone(),
            RowStore::Paged(p) => p.fetch(rid).expect("paged store corrupted"),
        }
    }

    /// Buffer-pool counters (`None` for the memory backend).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.store {
            RowStore::Mem(_) => None,
            RowStore::Paged(p) => Some(p.lock().stats()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.store {
            RowStore::Mem(rows) => rows.len(),
            RowStore::Paged(p) => p.locs.len(),
        }
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every row whose `doomed[rid]` is set (one flag per row) and
    /// returns the removed rows in storage order; the rest keep their
    /// order. Memory tables drop the rows in place, cloning only the
    /// removed ones, and fix up just their secondary indexes (dropping the
    /// removed row ids, shifting the rest down). Paged tables are rebuilt
    /// on the same backend.
    pub(crate) fn remove_rows(&mut self, doomed: &[bool]) -> Result<Vec<Vec<Value>>> {
        debug_assert_eq!(doomed.len(), self.len(), "one flag per row");
        let mut removed = Vec::new();
        match &mut self.store {
            RowStore::Mem(rows) => {
                let mut kept = 0;
                let new_rid: Vec<Option<usize>> = doomed
                    .iter()
                    .map(|&gone| {
                        (!gone).then(|| {
                            kept += 1;
                            kept - 1
                        })
                    })
                    .collect();
                let mut rid = 0;
                rows.retain(|row| {
                    let keep = !doomed[rid];
                    rid += 1;
                    if !keep {
                        removed.push(row.clone());
                    }
                    keep
                });
                for idx in &mut self.indexes {
                    idx.renumber(&new_rid);
                }
            }
            RowStore::Paged(_) => {
                let mut fresh = Table::with_backend(self.schema.clone(), self.backend())?;
                for (row, &gone) in self.scan().zip(doomed) {
                    if gone {
                        removed.push(row.into_owned());
                    } else {
                        fresh.insert(row.into_owned())?;
                    }
                }
                *self = fresh;
            }
        }
        Ok(removed)
    }
}

impl Clone for Table {
    /// Memory tables clone their vector; paged tables are rebuilt on an
    /// identical backend by re-inserting every row (clones must not share
    /// mutable page storage).
    fn clone(&self) -> Self {
        match &self.store {
            RowStore::Mem(rows) => Table {
                schema: self.schema.clone(),
                store: RowStore::Mem(rows.clone()),
                indexes: self.indexes.clone(),
            },
            RowStore::Paged(_) => {
                let mut t = Table::with_backend(self.schema.clone(), self.backend())
                    .expect("rebuilding an existing paged table");
                for row in self.rows().iter() {
                    t.insert(row.clone()).expect("row was already valid");
                }
                t
            }
        }
    }
}

impl PartialEq for Table {
    /// Schema (including index declarations) and row contents; the storage
    /// backend is deliberately *not* part of equality — that is the whole
    /// bit-identical-across-backends contract.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows() == other.rows()
    }
}

/// Streaming row cursor returned by [`Table::scan`]. Yields borrowed rows
/// for the memory backend and page-at-a-time decoded rows for the paged
/// one.
pub struct RowScan<'a> {
    inner: ScanInner<'a>,
}

enum ScanInner<'a> {
    Mem(std::slice::Iter<'a, Vec<Value>>),
    Paged {
        rows: &'a PagedRows,
        next_page: usize,
        buf: std::vec::IntoIter<Vec<Value>>,
    },
}

impl<'a> Iterator for RowScan<'a> {
    type Item = std::borrow::Cow<'a, [Value]>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            ScanInner::Mem(it) => it.next().map(|r| std::borrow::Cow::Borrowed(r.as_slice())),
            ScanInner::Paged {
                rows,
                next_page,
                buf,
            } => loop {
                if let Some(row) = buf.next() {
                    return Some(std::borrow::Cow::Owned(row));
                }
                if *next_page >= rows.pages.len() {
                    return None;
                }
                *buf = rows
                    .page_rows(*next_page)
                    .expect("paged store corrupted")
                    .into_iter();
                *next_page += 1;
            },
        }
    }
}

/// A database instance `I`: a catalog and the table contents.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    backend: Backend,
    /// Cached [`Database::catalog_fingerprint`]; schema mutations all go
    /// through `&mut self` methods, which keep it current.
    fingerprint: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_backend(Backend::Memory)
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

impl Database {
    /// Creates an empty database on the in-memory backend.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates an empty database whose tables use `backend`.
    pub fn with_backend(backend: Backend) -> Self {
        let mut db = Database {
            tables: BTreeMap::new(),
            backend,
            fingerprint: 0,
        };
        db.refresh_fingerprint();
        db
    }

    /// The backend new tables are created on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Creates a table from a schema (empty).
    pub fn create_table(&mut self, schema: TableSchema) {
        let table = Table::with_backend(schema.clone(), self.backend)
            .or_else(|_| -> Result<Table> {
                // Backend setup failure (e.g. temp file creation) falls
                // back to memory rather than losing the table; storage
                // errors resurface on the next paged operation.
                Ok(Table::new(schema))
            })
            .expect("memory fallback is infallible");
        self.tables.insert(table.schema.name.clone(), table);
        self.refresh_fingerprint();
    }

    /// Declares and builds a secondary index on `table.column`, recording
    /// it in the table's schema (and therefore in the catalog and the
    /// database fingerprint).
    pub fn create_index(&mut self, table: &str, column: &str, kind: IndexKind) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::UnknownTable {
                name: table.to_owned(),
            })?;
        t.create_index(column, kind)?;
        self.refresh_fingerprint();
        Ok(())
    }

    /// Inserts a row into the named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        match self.tables.get_mut(table) {
            Some(t) => t.insert(row),
            None => Err(Error::UnknownTable {
                name: table.to_owned(),
            }),
        }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_owned(),
        })
    }

    /// The catalog view of this database (schemas only).
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for t in self.tables.values() {
            c.add(t.schema.clone());
        }
        c
    }

    /// A cheap fingerprint of the catalog (schemas + index declarations).
    /// Two databases with equal catalogs have equal fingerprints, and any
    /// `create_table`/`create_index` changes it with overwhelming
    /// probability — the publisher's plan cache keys its invalidation on
    /// this instead of rebuilding and comparing whole [`Catalog`]s.
    pub fn catalog_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn refresh_fingerprint(&mut self) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in self.tables.values() {
            t.schema.hash(&mut h);
        }
        self.fingerprint = h.finish();
    }

    /// Rebuilds this database (schemas, rows, and index declarations) on a
    /// different storage backend — the backend-comparison harness of the
    /// scale benchmarks.
    pub fn to_backend(&self, backend: Backend) -> Result<Database> {
        let mut db = Database::with_backend(backend);
        for t in self.tables.values() {
            let mut schema = t.schema.clone();
            let indexes = std::mem::take(&mut schema.indexes);
            db.create_table(schema);
            for row in t.rows().iter() {
                db.insert(&t.schema.name, row.clone())?;
            }
            for def in indexes {
                db.create_index(&t.schema.name, &def.column, def.kind)?;
            }
        }
        Ok(db)
    }

    /// Removes the rows of `table` whose `doomed[rid]` is set, keeping the
    /// rest in storage order, and returns the removed rows in their former
    /// storage order (see [`Table::remove_rows`]). The schema is untouched,
    /// so the catalog fingerprint — and therefore any plan cache keyed on
    /// it — stays valid (the DML path depends on this).
    pub(crate) fn remove_rows(&mut self, table: &str, doomed: &[bool]) -> Result<Vec<Vec<Value>>> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| Error::UnknownTable {
                name: table.to_owned(),
            })?
            .remove_rows(doomed)
    }

    /// Iterates tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Aggregated buffer-pool counters over every paged table (`None`
    /// when no table is paged).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        let mut agg: Option<PoolStats> = None;
        for t in self.tables.values() {
            if let Some(s) = t.pool_stats() {
                agg.get_or_insert_with(PoolStats::default).absorb(&s);
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn insert_and_read_back() {
        let mut db = db();
        db.insert(
            "metroarea",
            vec![Value::Int(1), Value::Str("chicago".into())],
        )
        .unwrap();
        let t = db.table("metroarea").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][1], Value::Str("chicago".into()));
    }

    #[test]
    fn insert_validates_schema() {
        let mut db = db();
        assert!(db
            .insert("metroarea", vec![Value::Str("x".into()), Value::Int(1)])
            .is_err());
        assert!(matches!(
            db.insert("nope", vec![]),
            Err(Error::UnknownTable { .. })
        ));
    }

    #[test]
    fn catalog_reflects_tables() {
        let db = db();
        let c = db.catalog();
        assert!(c.contains("metroarea"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn total_rows_sums_tables() {
        let mut db = db();
        db.insert("metroarea", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        db.insert("metroarea", vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        assert_eq!(db.total_rows(), 2);
    }

    fn paged_backends() -> Vec<Backend> {
        vec![
            Backend::Paged {
                pool_pages: 2,
                file_backed: false,
            },
            Backend::Paged {
                pool_pages: 2,
                file_backed: true,
            },
        ]
    }

    #[test]
    fn paged_backends_agree_with_memory_row_for_row() {
        for backend in paged_backends() {
            let mut mem = db();
            let mut paged = mem.to_backend(backend).unwrap();
            for i in 0..2000 {
                let row = vec![Value::Int(i), Value::Str(format!("name-{i}"))];
                mem.insert("metroarea", row.clone()).unwrap();
                paged.insert("metroarea", row).unwrap();
            }
            let (m, p) = (
                mem.table("metroarea").unwrap(),
                paged.table("metroarea").unwrap(),
            );
            assert_eq!(p.len(), 2000);
            assert_eq!(m.rows(), p.rows());
            // Streaming scan agrees with materialization.
            let scanned: Vec<Vec<Value>> = p.scan().map(std::borrow::Cow::into_owned).collect();
            assert_eq!(scanned, p.rows().into_owned());
            assert_eq!(p.fetch_row(1234), m.fetch_row(1234));
            // A 2-frame pool over many pages must have evicted.
            let stats = p.pool_stats().unwrap();
            assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
            assert_eq!(mem, paged, "equality ignores the backend");
        }
    }

    #[test]
    fn create_index_builds_and_maintains() {
        let mut db = db();
        for i in 0..10 {
            db.insert(
                "metroarea",
                vec![Value::Int(i % 3), Value::Str(format!("m{i}"))],
            )
            .unwrap();
        }
        db.create_index("metroarea", "metroid", IndexKind::Hash)
            .unwrap();
        // Maintained on later inserts too.
        db.insert("metroarea", vec![Value::Int(1), Value::Str("late".into())])
            .unwrap();
        let t = db.table("metroarea").unwrap();
        let idx = t.index_for(0).unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)), &[1, 4, 7, 10]);
        assert!(t.schema.index_on("metroid").is_some());
        assert!(db
            .create_index("metroarea", "metroid", IndexKind::Hash)
            .is_err());
        assert!(db
            .create_index("metroarea", "nope", IndexKind::Hash)
            .is_err());
        assert!(db.create_index("nope", "metroid", IndexKind::Hash).is_err());
    }

    #[test]
    fn fingerprint_tracks_schema_changes_only() {
        let mut db = db();
        let fp0 = db.catalog_fingerprint();
        db.insert("metroarea", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        assert_eq!(
            db.catalog_fingerprint(),
            fp0,
            "data does not change the catalog"
        );
        db.create_index("metroarea", "metroid", IndexKind::Hash)
            .unwrap();
        let fp1 = db.catalog_fingerprint();
        assert_ne!(fp0, fp1, "index declarations are part of the catalog");
        db.create_table(
            TableSchema::new("extra", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap(),
        );
        assert_ne!(db.catalog_fingerprint(), fp1);
        // Equal catalogs (built the same way) fingerprint equally.
        let mut twin = Database::new();
        twin.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        );
        twin.create_index("metroarea", "metroid", IndexKind::Hash)
            .unwrap();
        twin.create_table(
            TableSchema::new("extra", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap(),
        );
        assert_eq!(db.catalog_fingerprint(), twin.catalog_fingerprint());
    }

    #[test]
    fn paged_table_clone_is_independent() {
        let mut db = db().to_backend(Backend::paged()).unwrap();
        db.insert("metroarea", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        let mut copy = db.clone();
        copy.insert("metroarea", vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        assert_eq!(db.table("metroarea").unwrap().len(), 1);
        assert_eq!(copy.table("metroarea").unwrap().len(), 2);
    }
}
