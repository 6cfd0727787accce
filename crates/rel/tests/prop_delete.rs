//! Property test for `DELETE`: on generated tables and predicates, the rows
//! `DELETE FROM t WHERE pred` removes are exactly the rows the interpreter
//! (`eval_query`, the oracle the prepared executor is checked against)
//! returns for `SELECT * FROM t WHERE pred`, in storage order. The
//! survivors keep their order, every index lookup still equals a scan, the
//! catalog fingerprint never moves, and a statement that fails changes
//! nothing.

use proptest::prelude::*;
use xvc_rel::{database_from_ddl, eval_query, parse_query, Database, ParamEnv, Value};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

// ---------------------------------------------------------------------------
// Generators: t(a INT, x FLOAT, s TEXT) with NULL, NaN, both float zeros and
// duplicate rows, optionally indexed on one column; u(b INT, y FLOAT) for
// correlated EXISTS.
// ---------------------------------------------------------------------------

const DDL: &str = "CREATE TABLE t (a INT, x FLOAT, s TEXT); CREATE TABLE u (b INT, y FLOAT)";
const COLUMNS: [&str; 3] = ["a", "x", "s"];

fn int() -> impl Strategy<Value = Value> {
    (0usize..4).prop_map(|i| [Value::Null, Value::Int(0), Value::Int(1), Value::Int(2)][i].clone())
}

fn float() -> impl Strategy<Value = Value> {
    (0usize..6).prop_map(|i| {
        [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(2.0),
        ][i]
            .clone()
    })
}

fn text() -> impl Strategy<Value = Value> {
    (0usize..4).prop_map(|i| {
        [
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ][i]
            .clone()
    })
}

/// The indexed column of `t` (if any).
fn index_choice() -> impl Strategy<Value = Option<&'static str>> {
    (0usize..7).prop_map(|i| match i {
        0 => None,
        1..=3 => Some(COLUMNS[i - 1]),
        _ => Some(COLUMNS[i - 4]),
    })
}

fn db_strategy() -> impl Strategy<Value = Database> {
    (
        prop::collection::vec((int(), float(), text()), 0..10),
        prop::collection::vec(0usize..10, 0..4),
        prop::collection::vec((int(), float()), 0..5),
        index_choice(),
    )
        .prop_map(|(mut rows, repeats, us, index)| {
            // Exact duplicates, spread over the table.
            for r in repeats {
                if !rows.is_empty() {
                    let row = rows[r % rows.len()].clone();
                    rows.push(row);
                }
            }
            let mut db = database_from_ddl(DDL).unwrap();
            if let Some(column) = index {
                db.create_index("t", column).unwrap();
            }
            for (a, x, s) in rows {
                db.insert("t", vec![a, x, s]).unwrap();
            }
            for (b, y) in us {
                db.insert("u", vec![b, y]).unwrap();
            }
            db
        })
}

const LITERALS: [&str; 9] = ["NULL", "0", "1", "2", "1.5", "0.0", "-0.0", "'a'", "''"];
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
const SUBQUERIES: [&str; 5] = [
    // Correlated through an unqualified outer column.
    "EXISTS (SELECT * FROM u WHERE b = a)",
    // Correlated through the outer table's name.
    "EXISTS (SELECT * FROM u WHERE y = t.x AND b > 0)",
    "EXISTS (SELECT * FROM u WHERE x = y)",
    // Uncorrelated: evaluated for the first row, reused for the rest.
    "NOT EXISTS (SELECT * FROM u WHERE b = 1)",
    "EXISTS (SELECT * FROM u WHERE y IS NULL)",
];
/// Predicates that fail on some rows: arithmetic on text, and a column
/// that resolves nowhere.
const FAILING: [&str; 2] = ["s + 1 > 0", "nosuch = 1"];

fn atom() -> impl Strategy<Value = String> {
    (
        0usize..16,
        0usize..3,
        0usize..6,
        0usize..9,
        0usize..3,
        0usize..5,
    )
        .prop_map(|(kind, c, o, l, d, q)| match kind {
            0..=5 => format!("{} {} {}", COLUMNS[c], OPS[o], LITERALS[l]),
            6..=8 => format!("{} {} {}", COLUMNS[c], OPS[o], COLUMNS[d]),
            9 => format!("{} IS NULL", COLUMNS[c]),
            10 => format!("{} IS NOT NULL", COLUMNS[c]),
            11..=13 => SUBQUERIES[q].to_owned(),
            14 => format!("NOT ({} {} {})", COLUMNS[c], OPS[o], LITERALS[l]),
            _ => FAILING[q % FAILING.len()].to_owned(),
        })
}

fn pred_strategy() -> impl Strategy<Value = String> {
    (atom(), atom(), atom(), 0usize..8, 0usize..3, 0usize..9).prop_map(|(p, q, r, shape, c, l)| {
        match shape {
            0 => p,
            1 => format!("{p} AND {q}"),
            2 => format!("{p} OR {q}"),
            3 => format!("NOT ({p}) AND ({q} OR {r})"),
            4 => format!("({p} OR {q}) AND {r}"),
            5 => format!("{p} AND {q} AND {r}"),
            // A top-level equality an index on that column can serve.
            _ => format!("{} = {} AND ({p} OR {q})", COLUMNS[c], LITERALS[l]),
        }
    })
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Stored-value identity: `Value`'s `==`, except that every NaN matches
/// every NaN and the two float zeros differ.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(p), Value::Float(q)) => {
            p.to_bits() == q.to_bits() || p.is_nan() && q.is_nan()
        }
        _ => a == b,
    }
}

fn same_rows<A: AsRef<[Value]>, B: AsRef<[Value]>>(a: &[A], b: &[B]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let (x, y) = (x.as_ref(), y.as_ref());
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_value(p, q))
        })
}

/// Whether a stored value lands in the index bucket of probe `v`: the
/// index's key normalisation (numbers unify through `f64`, `-0.0` folds
/// onto `0.0`, NaN buckets with NaN; NULL is never indexed).
fn same_key(stored: &Value, v: &Value) -> bool {
    let num = |x: &Value| match x {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let bits = |f: f64| if f == 0.0 { 0 } else { f.to_bits() };
    match (num(stored), num(v)) {
        (Some(p), Some(q)) => bits(p) == bits(q) || p.is_nan() && q.is_nan(),
        _ => !stored.is_null() && stored == v,
    }
}

/// Every lookup of `t`'s index, for every value `t` held before the
/// statement and a few others, equals a scan of the rows it holds now.
fn assert_index_equals_scan(
    db: &Database,
    before: &[Vec<Value>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let t = db.table("t").unwrap();
    for column in 0..COLUMNS.len() {
        let Some(idx) = t.index_for(column) else {
            continue;
        };
        let indexed = t.rows().iter().filter(|r| !r[column].is_null()).count();
        prop_assert_eq!(idx.len(), indexed, "index on {}", COLUMNS[column]);
        let extra = [
            Value::Int(1),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Str("a".into()),
            Value::Null,
        ];
        for v in before.iter().map(|r| &r[column]).chain(&extra) {
            let scan: Vec<usize> = (0..t.len())
                .filter(|&i| same_key(&t.rows()[i][column], v))
                .collect();
            prop_assert_eq!(
                idx.lookup(v),
                &scan[..],
                "lookup {:?} on {}",
                v,
                COLUMNS[column]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(512))]

    /// `DELETE FROM t WHERE pred` ≡ removing the rows the interpreter
    /// returns for `SELECT * FROM t WHERE pred`.
    #[test]
    fn delete_removes_exactly_the_oracle_rows(db in db_strategy(), pred in pred_strategy()) {
        let select = parse_query(&format!("SELECT * FROM t WHERE {pred}")).unwrap();
        let oracle = eval_query(&db, &select, &ParamEnv::new());
        let before = db.table("t").unwrap().rows().to_vec();
        let fingerprint = db.catalog_fingerprint();
        let mut after = db.clone();
        let got = after.execute_dml(&format!("DELETE FROM t WHERE {pred}"));
        let rows = after.table("t").unwrap().rows();
        match (oracle, got) {
            (Ok(matched), Ok(delta)) => {
                let d = &delta.tables["t"];
                prop_assert!(d.inserted.is_empty(), "{}", pred);
                prop_assert!(
                    same_rows(&d.deleted, &matched.rows),
                    "WHERE {}: deleted {:?}, oracle {:?}", pred, d.deleted, matched.rows
                );
                // The matched rows are a subsequence of storage; what is
                // left of storage must be the table, in order. (Equal rows
                // satisfy a predicate alike, so the greedy match is exact.)
                let mut pending = matched.rows.iter().peekable();
                let survivors: Vec<&Vec<Value>> = before
                    .iter()
                    .filter(|row| {
                        let hit = pending.peek().is_some_and(|m| same_rows(&[m], &[row]));
                        if hit {
                            pending.next();
                        }
                        !hit
                    })
                    .collect();
                prop_assert!(pending.next().is_none(), "WHERE {}: oracle rows out of storage order", pred);
                prop_assert!(
                    same_rows(rows, &survivors),
                    "WHERE {}: survivors {:?}, want {:?}", pred, rows, survivors
                );
            }
            (Err(_), Err(_)) => {
                prop_assert!(same_rows(rows, &before), "WHERE {}: a failed DELETE changed rows", pred);
            }
            (Ok(_), Err(e)) => prop_assert!(false, "only DELETE failed, WHERE {}: {}", pred, e),
            (Err(e), Ok(_)) => prop_assert!(false, "only the oracle failed, WHERE {}: {}", pred, e),
        }
        prop_assert_eq!(after.catalog_fingerprint(), fingerprint);
        assert_index_equals_scan(&after, &before)?;
    }
}
