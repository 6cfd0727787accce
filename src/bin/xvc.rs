//! `xvc` — command-line front end for XSLT/view composition.
//!
//! ```text
//! xvc compose --view v.view --xslt s.xsl --ddl schema.sql [--rewrites]
//! xvc publish --view v.view --ddl schema.sql --data DIR
//! xvc run     --view v.view --xslt s.xsl --ddl schema.sql --data DIR
//!             [--naive] [--rewrites] [--pretty]
//! xvc explain --sql "SELECT ..." --ddl schema.sql
//! xvc explain --view v.view --xslt s.xsl --ddl schema.sql [--rewrites]
//! xvc stats   --view v.view --xslt s.xsl --ddl schema.sql [--data DIR]
//! xvc deps    --view v.view --xslt s.xsl --ddl schema.sql [--json]
//! xvc serve   --view v.view --ddl schema.sql --data DIR [--xslt s.xsl]
//!             [--addr HOST:PORT] [--threads N] [--parallel N]
//! xvc check   [FILE...] [--view FILE] [--xslt FILE] [--ddl FILE]
//! ```
//!
//! * `compose` prints the composed stylesheet view (tag queries included);
//! * `publish` materializes `v(I)` from CSV data (`DIR/<table>.csv`);
//! * `run` prints the transformation result — by default via the composed
//!   view (`v'(I)`), with `--naive` via materialize-then-transform
//!   (`x(v(I))`); both paths are verified against each other, and any
//!   disagreement is reported as a localized divergence diff;
//! * `explain` prints the prepared plan that executes (join order and
//!   strategy, fused pushdowns, residual `EXISTS` subplans, grouping, the
//!   set-oriented batch operator) — for one `--sql` query after its
//!   cardinality bound, or for every composed tag query after its view
//!   node's bounds (each justified by its fact chain);
//! * `stats` prints per-stage composition counters (CTG/TVQ sizes, §4.5
//!   duplication factor, unbind depth) and, with `--data`, the relational
//!   engine's work executing the composed view;
//! * `deps` prints the static table→view dependency map
//!   ([`xvc::core::deps`]): every base `(table, column)` the TVQ reads,
//!   partitioned by role (scan/join-key/predicate/guard/output) and
//!   classified for update-safety, each edge justified by a fact chain —
//!   a report (the delta republish asks the cached plans what they read);
//! * `check` runs the static analyzer (dialect conformance, tag-query
//!   scoping/typing, CTG blowup prediction) and prints rustc-style
//!   diagnostics; positional files are classified by extension
//!   (`.view`, `.xsl`/`.xslt`, `.sql`/`.ddl`).
//!
//! Exit codes: 0 success (warnings allowed), 1 failure or error-level
//! diagnostics, 2 usage errors (unknown command/flag, missing argument).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xvc::core::Error as XvcError;
use xvc::prelude::*;
use xvc::rel::{bound_query, Card, FactSet};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.message);
            if e.usage {
                // Distinct exit code for "you invoked me wrongly", so
                // scripts can tell misuse from a failed check/compose.
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// A CLI failure. `usage: true` means the invocation itself was malformed
/// (unknown command/flag, missing or unclassifiable argument) — exit 2;
/// everything else exits 1.
struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: true,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            usage: false,
        }
    }
}

/// All library failures funnel through [`xvc::core::Error`]: the loaders
/// and commands below return typed errors, and this is the single point
/// where they are rendered for the terminal.
impl From<XvcError> for CliError {
    fn from(e: XvcError) -> Self {
        CliError {
            message: e.to_string(),
            usage: false,
        }
    }
}

impl From<xvc::view::Error> for CliError {
    fn from(e: xvc::view::Error) -> Self {
        XvcError::from(e).into()
    }
}

impl From<xvc::rel::Error> for CliError {
    fn from(e: xvc::rel::Error) -> Self {
        XvcError::from(e).into()
    }
}

impl From<xvc::xslt::Error> for CliError {
    fn from(e: xvc::xslt::Error) -> Self {
        XvcError::from(e).into()
    }
}

struct Opts {
    view: Option<PathBuf>,
    xslt: Option<PathBuf>,
    ddl: Option<PathBuf>,
    data: Option<PathBuf>,
    sql: Option<String>,
    files: Vec<PathBuf>,
    rewrites: bool,
    naive: bool,
    pretty: bool,
    optimize: bool,
    prune: bool,
    json: bool,
    addr: Option<String>,
    threads: Option<usize>,
    parallel: Option<usize>,
}

fn run(args: Vec<String>) -> Result<ExitCode, CliError> {
    let Some(command) = args.first().cloned() else {
        return Err(CliError::usage(usage()));
    };
    let mut opts = Opts {
        view: None,
        xslt: None,
        ddl: None,
        data: None,
        sql: None,
        files: Vec::new(),
        rewrites: false,
        naive: false,
        pretty: false,
        optimize: false,
        prune: false,
        json: false,
        addr: None,
        threads: None,
        parallel: None,
    };
    let mut it = args.into_iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--view" => opts.view = Some(path_arg(&mut it, "--view")?),
            "--xslt" => opts.xslt = Some(path_arg(&mut it, "--xslt")?),
            "--ddl" => opts.ddl = Some(path_arg(&mut it, "--ddl")?),
            "--data" => opts.data = Some(path_arg(&mut it, "--data")?),
            "--sql" => {
                opts.sql = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--sql needs a query argument"))?,
                )
            }
            "--addr" => {
                opts.addr = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--addr needs a host:port argument"))?,
                )
            }
            "--threads" => opts.threads = Some(count_arg(&mut it, "--threads")?),
            "--parallel" => opts.parallel = Some(count_arg(&mut it, "--parallel")?),
            "--rewrites" => opts.rewrites = true,
            "--optimize" => opts.optimize = true,
            "--prune" => opts.prune = true,
            "--json" => opts.json = true,
            "--naive" => opts.naive = true,
            "--pretty" => opts.pretty = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(CliError::usage(format!(
                    "unknown flag `{other}`\n{}",
                    usage()
                )))
            }
            _ => opts.files.push(PathBuf::from(arg)),
        }
    }
    if command != "check" && !opts.files.is_empty() {
        return Err(CliError::usage(format!(
            "unexpected argument `{}` — only `check` takes positional files\n{}",
            opts.files[0].display(),
            usage()
        )));
    }
    let code = match command.as_str() {
        "compose" => {
            cmd_compose(&opts)?;
            ExitCode::SUCCESS
        }
        "publish" => {
            cmd_publish(&opts)?;
            ExitCode::SUCCESS
        }
        "run" => {
            cmd_run(&opts)?;
            ExitCode::SUCCESS
        }
        "explain" => {
            cmd_explain(&opts)?;
            ExitCode::SUCCESS
        }
        "stats" => {
            cmd_stats(&opts)?;
            ExitCode::SUCCESS
        }
        "deps" => {
            cmd_deps(&opts)?;
            ExitCode::SUCCESS
        }
        "serve" => {
            cmd_serve(&opts)?;
            ExitCode::SUCCESS
        }
        "check" => cmd_check(&opts)?,
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown command `{other}`\n{}",
                usage()
            )))
        }
    };
    Ok(code)
}

fn usage() -> String {
    "usage:\n  \
     xvc compose --view FILE --xslt FILE --ddl FILE [--rewrites] [--optimize] [--prune]\n  \
     xvc publish --view FILE --ddl FILE --data DIR [--pretty]\n  \
     xvc run     --view FILE --xslt FILE --ddl FILE --data DIR \
     [--naive] [--rewrites] [--pretty] [--prune]\n  \
     xvc explain --sql QUERY --ddl FILE\n  \
     xvc explain --view FILE --xslt FILE --ddl FILE [--rewrites] [--optimize] [--prune]\n  \
     xvc stats   --view FILE --xslt FILE --ddl FILE [--data DIR] [--rewrites] [--optimize] \
     [--prune]\n  \
     xvc deps    --view FILE --xslt FILE --ddl FILE [--json]\n  \
     xvc serve   --view FILE --ddl FILE --data DIR [--xslt FILE] \
     [--addr HOST:PORT] [--threads N] [--parallel N]\n  \
     xvc check   [FILE...] [--view FILE] [--xslt FILE] [--ddl FILE] [--json]\n\n\
     `serve` loads everything once, composes when --xslt is given, and answers\n\
     GET /doc, GET /publish, POST /dml, POST /ddl, GET /stats, GET /healthz and\n\
     POST /shutdown over HTTP from a pool of --threads workers (default 4)\n\
     sharing one plan cache. --parallel N (default 1) evaluates up to N\n\
     root-level subtrees at once when the server builds its document (at\n\
     start-up and on /ddl) and when a /dml re-runs root-level nodes;\n\
     GET /publish streams them one at a time whatever N is.\n\
     `check` classifies positional files by extension: .view (publishing view),\n\
     .xsl/.xslt (stylesheet), .sql/.ddl (catalog). It exits 0 when only\n\
     warnings were emitted, 1 on error-level diagnostics, 2 on usage errors.\n\
     With --json it prints one JSON object per diagnostic per line\n\
     (code, severity, stage, file, span, message, help).\n\
     `--prune` removes provably dead TVQ subtrees and redundant conjuncts\n\
     during composition (see the XVC4xx diagnostics for what it would do)."
        .to_owned()
}

fn path_arg(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, CliError> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| CliError::usage(format!("{flag} needs a path argument")))
}

fn count_arg(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, CliError> {
    let raw = it
        .next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a number argument")))?;
    raw.parse()
        .map_err(|_| CliError::usage(format!("{flag} needs a number, got `{raw}`")))
}

/// The path for `flag`, or the legacy "missing --flag FILE" failure
/// (exit 1, not a usage error — the command was recognizable).
fn require<'a>(path: &'a Option<PathBuf>, flag: &str) -> Result<&'a Path, CliError> {
    path.as_deref()
        .ok_or_else(|| CliError::from(format!("missing {flag}")))
}

fn read(path: &Path) -> Result<String, XvcError> {
    std::fs::read_to_string(path).map_err(|e| XvcError::io(path.display().to_string(), &e))
}

fn load_view(path: &Path) -> Result<SchemaTree, XvcError> {
    xvc::view::parse_view(&read(path)?)
        .map_err(|e| XvcError::in_file(path.display().to_string(), e))
}

fn load_xslt(path: &Path) -> Result<Stylesheet, XvcError> {
    parse_stylesheet(&read(path)?).map_err(|e| XvcError::in_file(path.display().to_string(), e))
}

fn load_catalog(path: &Path) -> Result<Catalog, XvcError> {
    xvc::rel::parse_ddl(&read(path)?).map_err(|e| XvcError::in_file(path.display().to_string(), e))
}

fn load_database(ddl_path: &Path, dir: &Path) -> Result<Database, XvcError> {
    let mut db = xvc::rel::database_from_ddl(&read(ddl_path)?)
        .map_err(|e| XvcError::in_file(ddl_path.display().to_string(), e))?;
    let tables: Vec<String> = db.catalog().iter().map(|t| t.name.clone()).collect();
    let mut loaded = 0;
    for table in tables {
        let csv_path = dir.join(format!("{table}.csv"));
        if csv_path.exists() {
            let rows = xvc::rel::load_csv(&mut db, &table, &read(&csv_path)?)
                .map_err(|e| XvcError::in_file(csv_path.display().to_string(), e))?;
            eprintln!("loaded {rows} rows into {table}");
            loaded += 1;
        }
    }
    if loaded == 0 {
        eprintln!(
            "warning: no <table>.csv files found in {} — all tables are empty",
            dir.display()
        );
    }
    Ok(db)
}

/// Composes the stylesheet view under the CLI flags. The returned
/// [`Composition`] carries the composed tree, per-stage statistics, and
/// the stylesheet actually composed (lowered under `--rewrites`) — the
/// one the result must be checked against.
fn compose_view(
    view: &SchemaTree,
    xslt: &Stylesheet,
    catalog: &Catalog,
    opts: &Opts,
) -> Result<Composition, XvcError> {
    Composer::new(view, xslt, catalog)
        .rewrites(opts.rewrites)
        .optimize(opts.optimize)
        .prune(opts.prune)
        .run()
}

fn cmd_compose(opts: &Opts) -> Result<(), CliError> {
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let xslt = load_xslt(require(&opts.xslt, "--xslt FILE")?)?;
    let catalog = load_catalog(require(&opts.ddl, "--ddl FILE")?)?;
    let composition = compose_view(&view, &xslt, &catalog, opts)?;
    print!("{}", composition.view.render());
    Ok(())
}

fn cmd_publish(opts: &Opts) -> Result<(), CliError> {
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let db = load_database(
        require(&opts.ddl, "--ddl FILE")?,
        require(&opts.data, "--data DIR")?,
    )?;
    let published = Engine::new(&view).session().publish(&db)?;
    emit(&published.document, opts.pretty);
    let stats = &published.stats;
    eprintln!(
        "({} elements, {} queries, {} tuples)",
        stats.elements, stats.queries_run, stats.tuples_fetched
    );
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), CliError> {
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let xslt = load_xslt(require(&opts.xslt, "--xslt FILE")?)?;
    let db = load_database(
        require(&opts.ddl, "--ddl FILE")?,
        require(&opts.data, "--data DIR")?,
    )?;
    if opts.naive {
        let full = Engine::new(&view).session().publish(&db)?.document;
        let out = process(&xslt, &full)?;
        emit(&out, opts.pretty);
        return Ok(());
    }
    let composition = compose_view(&view, &xslt, &db.catalog(), opts)?;
    let published = Engine::new(&composition.view).session().publish(&db)?;
    // Belt and braces: verify against the naive pipeline; on disagreement,
    // report where and which tag query is responsible.
    match check_composition(&view, &composition.stylesheet, &composition.view, &db) {
        Ok(None) => {}
        Ok(Some(divergence)) => {
            return Err(CliError::from(format!(
                "internal error: v'(I) != x(v(I))\n{divergence}"
            )))
        }
        Err(e) => {
            return Err(CliError::from(format!(
                "internal error verifying v'(I) = x(v(I)): {e}"
            )))
        }
    }
    emit(&published.document, opts.pretty);
    eprintln!(
        "(composed execution: {} elements, {} queries)",
        published.stats.elements, published.stats.queries_run
    );
    Ok(())
}

fn cmd_explain(opts: &Opts) -> Result<(), CliError> {
    let catalog = load_catalog(require(&opts.ddl, "--ddl FILE")?)?;
    // One ad-hoc query: its static row bound, then the plan that runs…
    if let Some(sql) = &opts.sql {
        let q = parse_query(sql)?;
        let plan = prepare(&q, &catalog)?;
        println!(
            "cardinality: {}",
            bound_query(&q, &catalog, &FactSet::new())
        );
        print!("{}", plan.describe());
        return Ok(());
    }
    // …or every tag query of the composed stylesheet view, after the
    // static cardinality bounds of its view node.
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let xslt = load_xslt(require(&opts.xslt, "--xslt FILE")?)?;
    let composition = compose_view(&view, &xslt, &catalog, opts)?;
    let bounds = analyze_view_bounds(&composition.view, &catalog);
    let mut printed = 0;
    for vid in composition.view.node_ids() {
        let Some(node) = composition.view.node(vid) else {
            continue;
        };
        let Some(q) = &node.query else { continue };
        if printed > 0 {
            println!();
        }
        println!("<{}> tag query:", node.tag);
        if let Some(nb) = bounds.node(vid) {
            let batch = bounds.batch_bound(vid);
            let binding = if batch == Card::Unbounded {
                String::new()
            } else {
                format!("; binding bound: {batch} per batch")
            };
            // The fan-out prints with the fact chain that bounds it.
            println!(
                "  bounds: fan-out {}, per-document {}{binding}",
                nb.fan_out, nb.global
            );
        }
        for line in prepare(q, &catalog)?.describe().lines() {
            println!("  {line}");
        }
        printed += 1;
    }
    if printed == 0 {
        println!("(composed view has no tag queries — all literal output)");
    }
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), CliError> {
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let xslt = load_xslt(require(&opts.xslt, "--xslt FILE")?)?;
    let catalog = load_catalog(require(&opts.ddl, "--ddl FILE")?)?;
    let composition = compose_view(&view, &xslt, &catalog, opts)?;
    println!("composition:");
    for line in composition.stats.to_string().lines() {
        println!("  {line}");
    }
    // With data, also measure what executing the composed view costs —
    // publishing twice through one warm session so the plan cache shows a
    // steady-state (warm) hit rate.
    if let Some(dir) = &opts.data {
        let db = load_database(require(&opts.ddl, "--ddl FILE")?, dir)?;
        let mut session = Engine::new(&composition.view).session();
        session.publish(&db)?; // cold: fills the plan cache
        let published = session.publish(&db)?;
        let p = &published.stats;
        println!("publish (composed v'(I)):");
        println!(
            "  {} elements, {} attributes, {} tag-query executions, {} tuples fetched",
            p.elements, p.attributes, p.queries_run, p.tuples_fetched
        );
        println!(
            "  plan cache: {} prepared, {} hits ({:.0}% warm hit rate)",
            p.plans_prepared,
            p.plan_cache_hits,
            p.plan_cache_hit_rate() * 100.0
        );
        println!(
            "  batched execution: {} batches, {} max bindings per batch, {} rows regrouped",
            p.batches_executed, p.bindings_per_batch_max, p.rows_regrouped
        );
        println!(
            "  delta publish: {} nodes respliced, {} batches re-executed, {} delta rows in",
            p.nodes_respliced, p.batches_reexecuted, p.delta_rows_in
        );
        println!("engine:");
        for line in published.eval.to_string().lines() {
            println!("  {line}");
        }
    }
    Ok(())
}

fn cmd_deps(opts: &Opts) -> Result<(), CliError> {
    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let xslt = load_xslt(require(&opts.xslt, "--xslt FILE")?)?;
    let catalog = load_catalog(require(&opts.ddl, "--ddl FILE")?)?;
    let ctg = xvc::core::build_ctg(&view, &xslt)?;
    // Cyclic CTGs have no TVQ (§5.3): fall back to the raw-view walk with
    // every edge recompute-required, exactly as analyzer pass 7 does.
    let map = if ctg.has_cycle().is_some() {
        xvc::core::DependencyMap::of_view(&view, &catalog, true)
    } else {
        let tvq = xvc::core::build_tvq(
            &view,
            &xslt,
            &ctg,
            &catalog,
            xvc::core::tvq::DEFAULT_TVQ_LIMIT,
        )?;
        xvc::core::DependencyMap::of_tvq(&tvq, &view, &catalog)
    };
    if opts.json {
        println!("{}", map.to_json());
    } else {
        print!("{}", map.render());
    }
    Ok(())
}

/// `xvc serve`: composes once (when `--xslt` is given), loads the data,
/// and serves publish/DML/DDL/stats requests from a worker pool behind one
/// shared `Engine`. Prints the bound address on stdout (flushed, so
/// scripts can wait on it) and blocks until `POST /shutdown`.
fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    use std::io::Write as _;

    let view = load_view(require(&opts.view, "--view FILE")?)?;
    let db = load_database(
        require(&opts.ddl, "--ddl FILE")?,
        require(&opts.data, "--data DIR")?,
    )?;
    let tree = match &opts.xslt {
        Some(path) => {
            let xslt = load_xslt(path)?;
            compose_view(&view, &xslt, &db.catalog(), opts)?.view
        }
        None => view,
    };
    let threads = opts.threads.unwrap_or(4);
    let engine = Engine::new(&tree).parallel(opts.parallel.unwrap_or(1));
    let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:7070");
    let server = xvc::serve::Server::start(engine, db, addr, threads)
        .map_err(|e| CliError::from(format!("serve: {e}")))?;
    println!(
        "listening on http://{} ({threads} worker threads)",
        server.addr()
    );
    std::io::stdout().flush().ok();
    server.join();
    Ok(())
}

fn cmd_check(opts: &Opts) -> Result<ExitCode, CliError> {
    use xvc::analyze::{
        check_sources, render, render_summary, sort_for_display, CheckOptions, Sources,
    };

    let mut view_path = opts.view.clone();
    let mut xslt_path = opts.xslt.clone();
    let mut ddl_path = opts.ddl.clone();
    for f in &opts.files {
        match f.extension().and_then(|e| e.to_str()) {
            Some("view") => view_path = Some(f.clone()),
            Some("xsl" | "xslt") => xslt_path = Some(f.clone()),
            Some("sql" | "ddl") => ddl_path = Some(f.clone()),
            _ => {
                return Err(CliError::usage(format!(
                    "cannot classify `{}` by extension — expected .view, .xsl/.xslt or .sql/.ddl",
                    f.display()
                )))
            }
        }
    }
    if view_path.is_none() && xslt_path.is_none() {
        return Err(CliError::usage(format!(
            "check needs a view and/or a stylesheet\n{}",
            usage()
        )));
    }
    let view_src = match &view_path {
        Some(p) => Some((p.display().to_string(), read(p)?)),
        None => None,
    };
    let xslt_src = match &xslt_path {
        Some(p) => Some((p.display().to_string(), read(p)?)),
        None => None,
    };
    let catalog = match &ddl_path {
        Some(p) => Some(
            xvc::rel::parse_ddl(&read(p)?)
                .map_err(|e| XvcError::in_file(p.display().to_string(), e))?,
        ),
        None => None,
    };
    let report = check_sources(
        view_src.as_ref().map(|(_, s)| s.as_str()),
        xslt_src.as_ref().map(|(_, s)| s.as_str()),
        catalog.as_ref(),
        &CheckOptions::default(),
    );
    let sources = Sources {
        view: view_src.as_ref().map(|(n, s)| (n.as_str(), s.as_str())),
        stylesheet: xslt_src.as_ref().map(|(n, s)| (n.as_str(), s.as_str())),
    };
    // Presentation order: by file, span offset, code — duplicates dropped.
    let display = sort_for_display(&report.diagnostics);
    if opts.json {
        for d in &display {
            println!(
                "{}",
                diag_to_json(
                    d,
                    view_src.as_ref().map(|(n, _)| n.as_str()),
                    xslt_src.as_ref().map(|(n, _)| n.as_str()),
                )
            );
        }
    } else {
        for (i, d) in display.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", render(d, &sources));
        }
        println!("{}", render_summary(&display));
        if let Some(p) = &report.prediction {
            if !p.cyclic {
                eprintln!(
                    "(§4.5 prediction: {} CTG nodes -> {} TVQ nodes, duplication factor {:.2})",
                    p.ctg_nodes, p.predicted_tvq_nodes, p.duplication_factor
                );
            }
        }
    }
    Ok(if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// One diagnostic as a single-line JSON object (no serde in-tree; the
/// schema is stable: code, severity, stage, file, span, message, help,
/// justification).
fn diag_to_json(
    d: &xvc::analyze::Diagnostic,
    view_name: Option<&str>,
    xslt_name: Option<&str>,
) -> String {
    use xvc::analyze::Stage;
    let stage = match d.stage {
        Stage::View => "view",
        Stage::Stylesheet => "stylesheet",
        Stage::Composed => "composed",
        Stage::General => "general",
    };
    let file = match d.stage {
        Stage::View => view_name,
        Stage::Stylesheet => xslt_name,
        Stage::Composed | Stage::General => None,
    };
    let mut s = format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"stage\":\"{stage}\"",
        d.code.as_str(),
        d.severity
    );
    match file {
        Some(f) => s.push_str(&format!(",\"file\":\"{}\"", json_escape(f))),
        None => s.push_str(",\"file\":null"),
    }
    match d.span {
        Some(sp) => s.push_str(&format!(
            ",\"span\":{{\"start\":{},\"end\":{}}}",
            sp.start, sp.end
        )),
        None => s.push_str(",\"span\":null"),
    }
    s.push_str(&format!(",\"message\":\"{}\"", json_escape(&d.message)));
    match &d.help {
        Some(h) => s.push_str(&format!(",\"help\":\"{}\"", json_escape(h))),
        None => s.push_str(",\"help\":null"),
    }
    s.push_str(",\"justification\":[");
    for (i, j) in d.justification.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", json_escape(j)));
    }
    s.push_str("]}");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn emit(doc: &Document, pretty: bool) {
    if pretty {
        print!("{}", doc.to_pretty_xml());
    } else {
        println!("{}", doc.to_xml());
    }
}
