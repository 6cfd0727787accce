//! End-to-end tests of the `xvc` CLI binary: file-based view definitions,
//! DDL, CSV data, composition and execution.

use std::path::PathBuf;
use std::process::Command;

const DDL: &str = "\
CREATE TABLE city (id INT, name TEXT, population INT);
CREATE TABLE sight (sid INT, city_id INT, sname TEXT, fee INT);
";

const VIEW: &str = "\
# cities with their sights
node city $c {
    query: SELECT id, name, population FROM city;
    node sight $s {
        query: SELECT sid, sname, fee FROM sight WHERE city_id = $c.id;
    }
}
";

const XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/">
    <guide><xsl:apply-templates select="city[@population&gt;1000000]"/></guide>
  </xsl:template>
  <xsl:template match="city">
    <entry>
      <xsl:value-of select="@name"/>
      <xsl:apply-templates select="sight[@fee=0]"/>
    </entry>
  </xsl:template>
  <xsl:template match="sight">
    <free><xsl:value-of select="@sname"/></free>
  </xsl:template>
</xsl:stylesheet>"#;

const CITY_CSV: &str = "\
id,name,population
1,chicago,2700000
2,galena,3200
3,nyc,8300000
";

const SIGHT_CSV: &str = "\
sid,city_id,sname,fee
10,1,\"The Bean\",0
11,1,Art Institute,25
12,3,Central Park,0
13,3,\"MoMA, Manhattan\",30
";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xvc_cli_{name}_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("data")).unwrap();
        std::fs::write(dir.join("schema.sql"), DDL).unwrap();
        std::fs::write(dir.join("guide.view"), VIEW).unwrap();
        std::fs::write(dir.join("guide.xsl"), XSLT).unwrap();
        std::fs::write(dir.join("data/city.csv"), CITY_CSV).unwrap();
        std::fs::write(dir.join("data/sight.csv"), SIGHT_CSV).unwrap();
        Fixture { dir }
    }

    fn run(&self, args: &[&str]) -> (bool, String, String) {
        let (code, stdout, stderr) = self.run_code(args);
        (code == Some(0), stdout, stderr)
    }

    /// Like [`Fixture::run`] but returns the raw exit code, for tests that
    /// distinguish failure (1) from usage errors (2).
    fn run_code(&self, args: &[&str]) -> (Option<i32>, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xvc"))
            .current_dir(&self.dir)
            .args(args)
            .output()
            .expect("spawn xvc");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn compose_prints_the_stylesheet_view() {
    let f = Fixture::new("compose");
    let (ok, stdout, stderr) = f.run(&[
        "compose",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("<guide>  [literal]"), "{stdout}");
    assert!(stdout.contains("<entry>"), "{stdout}");
    assert!(stdout.contains("population > 1000000"), "{stdout}");
    assert!(stdout.contains("fee = 0"), "{stdout}");
}

#[test]
fn run_produces_verified_output() {
    let f = Fixture::new("run");
    let (ok, stdout, stderr) = f.run(&[
        "run",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
        "--data",
        "data",
    ]);
    assert!(ok, "{stderr}");
    // chicago and nyc pass the population filter; their free sights appear.
    assert!(stdout.contains("name=\"chicago\""), "{stdout}");
    assert!(stdout.contains("name=\"nyc\""), "{stdout}");
    assert!(!stdout.contains("galena"), "{stdout}");
    assert!(stdout.contains("sname=\"The Bean\""), "{stdout}");
    assert!(stdout.contains("sname=\"Central Park\""), "{stdout}");
    assert!(!stdout.contains("MoMA"), "{stdout}");
    assert!(stderr.contains("composed execution"), "{stderr}");

    // The naive path prints the same document.
    let (ok, naive_stdout, _) = f.run(&[
        "run",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
        "--data",
        "data",
        "--naive",
    ]);
    assert!(ok);
    let canon = |s: &str| {
        let d = xvc::xml::parse(s.trim()).unwrap();
        xvc::xml::canonical_string(&d, d.root())
    };
    assert_eq!(canon(&stdout), canon(&naive_stdout));
}

#[test]
fn publish_materializes_the_view() {
    let f = Fixture::new("publish");
    let (ok, stdout, stderr) = f.run(&[
        "publish",
        "--view",
        "guide.view",
        "--ddl",
        "schema.sql",
        "--data",
        "data",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("<city id=\"2\" name=\"galena\""),
        "{stdout}"
    );
    assert!(stdout.contains("fee=\"25\""), "{stdout}");
    assert!(stderr.contains("loaded 3 rows into city"), "{stderr}");
    assert!(stderr.contains("loaded 4 rows into sight"), "{stderr}");
}

#[test]
fn check_reports_diagnostics_with_codes() {
    let f = Fixture::new("check");
    std::fs::write(
        f.dir.join("flow.xsl"),
        r#"<xsl:stylesheet>
             <xsl:template match="city">
               <xsl:if test="@population &gt; 1"><big/></xsl:if>
             </xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    // Flow control is a lowerable warning (XVC002) but the missing root
    // rule is fatal (XVC008): exit 1.
    let (code, stdout, _) = f.run_code(&["check", "--xslt", "flow.xsl"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("warning[XVC002]"), "{stdout}");
    assert!(stdout.contains("error[XVC008]"), "{stdout}");
    assert!(stdout.contains("error"), "{stdout}");

    // guide.xsl only uses predicates (XVC001, composes directly): exit 0.
    let (ok, stdout, _) = f.run(&["check", "--xslt", "guide.xsl"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("warning[XVC001]"), "{stdout}");
    assert!(stdout.contains("--> guide.xsl"), "{stdout}");
    assert!(!stdout.contains("error["), "{stdout}");
}

#[test]
fn check_json_emits_one_object_per_line() {
    let f = Fixture::new("check_json");
    // A view restricting population > 1000000 composed with a stylesheet
    // demanding population < 5: the branch is provably dead (XVC401).
    std::fs::write(
        f.dir.join("dead.view"),
        "\
node city $c {
    query: SELECT id, name, population FROM city WHERE population > 1000000;
}
",
    )
    .unwrap();
    std::fs::write(
        f.dir.join("dead.xsl"),
        r#"<xsl:stylesheet>
  <xsl:template match="/">
    <out><xsl:apply-templates select="city[@population &lt; 5]"/></out>
  </xsl:template>
  <xsl:template match="city"><hit/></xsl:template>
</xsl:stylesheet>"#,
    )
    .unwrap();
    let (ok, stdout, stderr) = f.run(&["check", "--json", "dead.view", "dead.xsl", "schema.sql"]);
    assert!(ok, "{stdout}{stderr}");
    // One JSON object per line, nothing else on stdout.
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(!lines.is_empty(), "{stdout}");
    for line in &lines {
        assert!(
            line.starts_with("{\"code\":\"XVC") && line.ends_with('}'),
            "not a diagnostic object: {line}"
        );
        for key in [
            "\"code\":",
            "\"severity\":",
            "\"stage\":",
            "\"file\":",
            "\"span\":",
            "\"message\":",
            "\"help\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    // The dead branch surfaces as XVC401 (warning) plus the prune report.
    let dead = lines
        .iter()
        .find(|l| l.contains("\"code\":\"XVC401\""))
        .unwrap_or_else(|| panic!("no XVC401 line in {stdout}"));
    assert!(dead.contains("\"severity\":\"warning\""), "{dead}");
    assert!(dead.contains("\"stage\":\"composed\""), "{dead}");
    assert!(dead.contains("population"), "{dead}");
    assert!(
        lines.iter().any(|l| l.contains("\"code\":\"XVC407\"")),
        "{stdout}"
    );
    // Spanned stylesheet findings carry the file and a numeric span.
    let spanned = lines
        .iter()
        .find(|l| l.contains("\"file\":\"dead.xsl\""))
        .unwrap_or_else(|| panic!("no stylesheet-file line in {stdout}"));
    assert!(spanned.contains("\"span\":{\"start\":"), "{spanned}");
    // The human summary and prediction stay off stdout in JSON mode.
    assert!(!stdout.contains("check:"), "{stdout}");
}

#[test]
fn check_json_carries_justification_fact_chains() {
    let f = Fixture::new("check_json_just");
    // Same provably-dead workload as above: XVC401 (dead branch) and
    // XVC501 (zero cardinality bound) both fire, each justified by the
    // fact chain that proved the contradiction.
    std::fs::write(
        f.dir.join("dead.view"),
        "\
node city $c {
    query: SELECT id, name, population FROM city WHERE population > 1000000;
}
",
    )
    .unwrap();
    std::fs::write(
        f.dir.join("dead.xsl"),
        r#"<xsl:stylesheet>
  <xsl:template match="/">
    <out><xsl:apply-templates select="city[@population &lt; 5]"/></out>
  </xsl:template>
  <xsl:template match="city"><hit/></xsl:template>
</xsl:stylesheet>"#,
    )
    .unwrap();
    let (ok, stdout, stderr) = f.run(&["check", "--json", "dead.view", "dead.xsl", "schema.sql"]);
    assert!(ok, "{stdout}{stderr}");
    // Every diagnostic object carries a justification array (possibly
    // empty), always the last key.
    for line in stdout.lines() {
        assert!(
            line.contains("\"justification\":[") && line.ends_with("]}"),
            "no justification array in {line}"
        );
    }
    // The XVC401 dead-branch finding and the XVC501 zero-bound finding
    // both justify themselves with the contradicting predicates.
    for code in ["XVC401", "XVC501"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!("\"code\":\"{code}\"")))
            .unwrap_or_else(|| panic!("no {code} line in {stdout}"));
        let just = line
            .split("\"justification\":")
            .nth(1)
            .unwrap_or_else(|| panic!("no justification in {line}"));
        assert!(!just.starts_with("[]"), "empty justification: {line}");
        assert!(just.contains("population"), "{line}");
    }
}

#[test]
fn check_classifies_positional_files() {
    let f = Fixture::new("check_positional");
    // Full workload via positional args: view + stylesheet + catalog.
    let (ok, stdout, stderr) = f.run(&["check", "guide.view", "guide.xsl", "schema.sql"]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("warning[XVC001]"), "{stdout}");
    assert!(!stdout.contains("error["), "{stdout}");
    assert!(stdout.contains("warning"), "{stdout}");
    assert!(stderr.contains("prediction"), "{stderr}");

    // Unclassifiable extension is a usage error: exit 2.
    let (code, _, stderr) = f.run_code(&["check", "guide.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("cannot classify"), "{stderr}");
}

#[test]
fn helpful_errors() {
    let f = Fixture::new("errors");
    let (code, _, stderr) = f.run_code(&["compose", "--view", "guide.view"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("missing --xslt"), "{stderr}");

    // Misuse (unknown command/flag) exits 2, distinct from failures.
    let (code, _, stderr) = f.run_code(&["frobnicate"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let (code, _, stderr) = f.run_code(&["compose", "--frobnicate"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");

    let (ok, _, stderr) = f.run(&[
        "compose",
        "--view",
        "no_such_file.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(!ok);
    assert!(stderr.contains("no_such_file.view"), "{stderr}");

    let (ok, stdout, _) = f.run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"), "{stdout}");
}

#[test]
fn check_and_run_reject_the_same_bad_ddl() {
    // A column indexed twice, and a table declared twice: every DDL loader
    // rejects both, so `check` cannot pass a schema `run` refuses to load.
    let f = Fixture::new("bad_ddl");
    for (file, extra) in [
        (
            "twice_indexed.sql",
            "CREATE INDEX i ON city (id);\nCREATE INDEX j ON city (id);\n",
        ),
        (
            "twice_declared.sql",
            "CREATE TABLE city (id INT, name TEXT, population INT);\n",
        ),
    ] {
        std::fs::write(f.dir.join(file), format!("{DDL}{extra}")).unwrap();
        let (code, _, stderr) = f.run_code(&["check", "guide.view", "guide.xsl", file]);
        assert_eq!(code, Some(1), "check {file}: {stderr}");
        assert!(stderr.contains(file), "check {file}: {stderr}");
        let (code, _, stderr) = f.run_code(&[
            "run",
            "--view",
            "guide.view",
            "--xslt",
            "guide.xsl",
            "--ddl",
            file,
            "--data",
            "data",
        ]);
        assert_eq!(code, Some(1), "run {file}: {stderr}");
        assert!(stderr.contains(file), "run {file}: {stderr}");
    }
}

#[test]
fn explain_sql_prints_a_plan() {
    let f = Fixture::new("explain_sql");
    let (ok, stdout, stderr) = f.run(&[
        "explain",
        "--sql",
        "SELECT name, sname FROM city, sight WHERE city_id = id",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("scan city"), "{stdout}");
    assert!(
        stdout.contains("scan sight | hash join on (id = city_id)"),
        "{stdout}"
    );
    assert!(stdout.contains("project: name, sname"), "{stdout}");
}

#[test]
fn explain_prints_the_plan_that_runs_on_the_paper_view() {
    // Figure 1's view x Figure 4's stylesheet over Figure 2's schema: each
    // composed tag query prints its bounds, then the prepared plan that
    // executes, and nothing else.
    let f = Fixture::new("explain_paper");
    let paper = |file: &str| format!("{}/examples/files/paper/{file}", env!("CARGO_MANIFEST_DIR"));
    let (ok, stdout, stderr) = f.run(&[
        "explain",
        "--view",
        &paper("figure1.view"),
        "--xslt",
        &paper("figure4.xsl"),
        "--ddl",
        &paper("figure2.sql"),
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.matches("prepared plan:").count(), 3, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.contains("prepared plan:") {
            assert!(lines[i - 1].trim_start().starts_with("bounds:"), "{stdout}");
            assert!(lines[i - 2].ends_with("tag query:"), "{stdout}");
        }
    }
    // confroom's EXISTS reads its binding, so the query runs once per
    // distinct binding; its subplan is printed, not guessed to be cached.
    let confroom = stdout
        .split("<confroom> tag query:")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("a confroom plan");
    assert!(confroom.contains("per-distinct-binding"), "{stdout}");
    assert!(confroom.contains("residual: EXISTS (...)"), "{stdout}");
    assert!(confroom.contains("exists subplan"), "{stdout}");
    assert!(confroom.contains("scan availability"), "{stdout}");
    assert!(
        !lines
            .iter()
            .any(|l| l.contains("uncorrelated — evaluated once")),
        "{stdout}"
    );
}

#[test]
fn explain_composed_prints_tag_query_plans() {
    let f = Fixture::new("explain_composed");
    let (ok, stdout, stderr) = f.run(&[
        "explain",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    // One plan per composed tag query, parameterized predicates pushed down.
    assert!(stdout.contains("<entry> tag query:"), "{stdout}");
    assert!(stdout.contains("scan city"), "{stdout}");
    assert!(stdout.contains("pushdown:"), "{stdout}");
}

#[test]
fn explain_sql_justifies_join_strategy_by_cardinality_bound() {
    let f = Fixture::new("explain_bound");
    // With declared keys, pinning sight's key and joining city on its key
    // bounds the query to one row, and the `cardinality:` line names the
    // keys that prove it. The bound is a report: the join builds a hash
    // table either way, and the plan is the one printed without keys.
    std::fs::write(
        f.dir.join("keyed.sql"),
        "\
CREATE TABLE city (id INT PRIMARY KEY, name TEXT, population INT);
CREATE TABLE sight (sid INT PRIMARY KEY, city_id INT, sname TEXT, fee INT);
",
    )
    .unwrap();
    let sql = "SELECT c.name, s.sname FROM sight s, city c WHERE s.sid = 10 AND c.id = s.city_id";
    let (ok, keyed, stderr) = f.run(&["explain", "--sql", sql, "--ddl", "keyed.sql"]);
    assert!(ok, "{stderr}");
    assert!(keyed.starts_with("cardinality: <= 1 row ["), "{keyed}");
    assert!(keyed.contains("DDL: sight.sid PRIMARY KEY"), "{keyed}");
    assert!(keyed.contains("DDL: city.id PRIMARY KEY"), "{keyed}");
    assert!(keyed.contains("hash join"), "{keyed}");

    // Without the key declarations the query is unbounded, and the plan
    // is the same.
    let (ok, plain, stderr) = f.run(&["explain", "--sql", sql, "--ddl", "schema.sql"]);
    assert!(ok, "{stderr}");
    assert!(plain.starts_with("cardinality: unbounded\n"), "{plain}");
    assert!(plain.contains("hash join"), "{plain}");
    let plan = |out: &str| out.split_once('\n').map(|(_, plan)| plan.to_owned());
    assert_eq!(plan(&keyed), plan(&plain));
}

#[test]
fn explain_composed_reports_cardinality_bounds() {
    let f = Fixture::new("explain_bounds_workload");
    let (ok, stdout, stderr) = f.run(&[
        "explain",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    // Every composed node reports its statically derived bounds, and
    // root-level nodes carry the single-binding batch bound that lets
    // the publisher skip the shared set-oriented pipeline.
    assert!(stdout.contains("bounds: fan-out"), "{stdout}");
    assert!(stdout.contains("per-document"), "{stdout}");
    assert!(
        stdout.contains("binding bound: <= 1 row per batch"),
        "{stdout}"
    );

    // A fan-out bounded by a key carries the fact chain that bounds it.
    std::fs::write(
        f.dir.join("keyed.sql"),
        DDL.replace("(id INT,", "(id INT PRIMARY KEY,"),
    )
    .unwrap();
    std::fs::write(
        f.dir.join("one.view"),
        VIEW.replace("FROM city;", "FROM city WHERE id = 1;"),
    )
    .unwrap();
    let (ok, stdout, stderr) = f.run(&[
        "explain",
        "--view",
        "one.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "keyed.sql",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("bounds: fan-out <= 1 row [DDL: city.id PRIMARY KEY; conjunct `"),
        "{stdout}"
    );
}

#[test]
fn stats_reports_pipeline_and_engine_counters() {
    let f = Fixture::new("stats");
    let (ok, stdout, stderr) = f.run(&[
        "stats",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
        "--data",
        "data",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("composition:"), "{stdout}");
    assert!(stdout.contains("CTG:"), "{stdout}");
    assert!(stdout.contains("duplication factor"), "{stdout}");
    assert!(stdout.contains("publish (composed v'(I)):"), "{stdout}");
    assert!(stdout.contains("tag-query executions"), "{stdout}");
    assert!(stdout.contains("rows scanned"), "{stdout}");

    // Without --data only the composition counters appear.
    let (ok, stdout, _) = f.run(&[
        "stats",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok);
    assert!(stdout.contains("composition:"), "{stdout}");
    assert!(!stdout.contains("engine:"), "{stdout}");
}

#[test]
fn deps_prints_the_dependency_map() {
    let f = Fixture::new("deps");
    let (ok, stdout, stderr) = f.run(&[
        "deps",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    // Inverted map, keyed by (table, column), with roles and safety.
    assert!(stdout.contains("city.*"), "{stdout}");
    assert!(stdout.contains("[insert-monotone]"), "{stdout}");
    // The join key $c.id resolves through the binding ancestor to city.id
    // and is recompute-required.
    assert!(stdout.contains("city.id"), "{stdout}");
    assert!(stdout.contains("join-key"), "{stdout}");
    assert!(stdout.contains("[recompute-required]"), "{stdout}");
    // Every edge is justified.
    assert!(stdout.contains("fact chain:"), "{stdout}");
}

#[test]
fn deps_json_is_one_object_with_edges() {
    let f = Fixture::new("deps_json");
    let (ok, stdout, stderr) = f.run(&[
        "deps",
        "--json",
        "--view",
        "guide.view",
        "--xslt",
        "guide.xsl",
        "--ddl",
        "schema.sql",
    ]);
    assert!(ok, "{stderr}");
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    assert!(line.contains("\"recursive\":false"), "{stdout}");
    assert!(line.contains("\"role\":\"join-key\""), "{stdout}");
    assert!(
        line.contains("\"safety\":\"recompute-required\""),
        "{stdout}"
    );
    assert!(line.contains("\"justification\":\"fact chain:"), "{stdout}");
}

/// A file of the guide example, `examples/files/<file>`.
fn guide(file: &str) -> String {
    format!("{}/examples/files/{file}", env!("CARGO_MANIFEST_DIR"))
}

impl Fixture {
    /// Writes `view.view` and `view.xsl` into the fixture, then runs
    /// `xvc run` on them over the guide's schema and data, with `flags`:
    /// the document it prints, or its stderr when it fails.
    fn run_on_guide(&self, view: &str, xslt: &str, flags: &[&str]) -> Result<String, String> {
        std::fs::write(self.dir.join("view.view"), view).unwrap();
        std::fs::write(self.dir.join("view.xsl"), xslt).unwrap();
        let (schema, data) = (guide("schema.sql"), guide("data"));
        let mut args = vec![
            "run",
            "--view",
            "view.view",
            "--xslt",
            "view.xsl",
            "--ddl",
            &schema,
            "--data",
            &data,
        ];
        args.extend(flags);
        match self.run(&args) {
            (true, stdout, _) => Ok(stdout.trim().to_owned()),
            (false, _, stderr) => Err(stderr),
        }
    }
}

#[test]
fn an_attribute_behind_a_star_is_the_stars_column() {
    // `*` publishes `population` before the aliased expression does, so
    // `@population` is the stored column: the composed query filters on
    // it, as the published document does.
    let f = Fixture::new("attr_star_first");
    let view =
        "node city $c {\n    query: SELECT *, population / 1000 AS population FROM city;\n}\n";
    let xslt = r#"<xsl:stylesheet>
  <xsl:template match="/"><guide><xsl:apply-templates select="city[@population &gt; 5000]"/></guide></xsl:template>
  <xsl:template match="city"><big><xsl:value-of select="@name"/></big></xsl:template>
</xsl:stylesheet>"#;
    let want = r#"<guide><big name="chicago"/><big name="nyc"/></guide>"#;
    assert_eq!(f.run_on_guide(view, xslt, &[]).as_deref(), Ok(want));
    assert_eq!(
        f.run_on_guide(view, xslt, &["--naive"]).as_deref(),
        Ok(want)
    );
}

#[test]
fn an_attribute_whose_first_column_is_null_is_absent() {
    // `@fee` is the NULL first column on every sight, so no sight is free,
    // whether the stylesheet runs over the published view or is composed.
    let f = Fixture::new("attr_null_first");
    let view = std::fs::read_to_string(guide("guide.view"))
        .unwrap()
        .replace(
            "SELECT sid, sname, fee FROM sight",
            "SELECT sid, sname, NULL AS fee, fee FROM sight",
        );
    let xslt = std::fs::read_to_string(guide("guide.xsl")).unwrap();
    let want = r#"<guide><entry name="chicago"/><entry name="nyc"/></guide>"#;
    assert_eq!(f.run_on_guide(&view, &xslt, &[]).as_deref(), Ok(want));
    assert_eq!(
        f.run_on_guide(&view, &xslt, &["--naive"]).as_deref(),
        Ok(want)
    );
}

#[test]
fn a_later_namesake_lends_its_parameter_no_facts() {
    // `$c.name` reads the first `name` column, the city's; the literal
    // `'x'` behind it is no fact about `$c.name`, so the sights under
    // chicago are not provably dead.
    let f = Fixture::new("attr_facts_first");
    let view = "node city $c {
    query: SELECT name, 'x' AS name FROM city;
    node sight $s {
        query: SELECT sid, sname FROM sight WHERE $c.name = 'chicago';
    }
}
";
    let xslt = r#"<xsl:stylesheet>
  <xsl:template match="/"><guide><xsl:apply-templates select="city"/></guide></xsl:template>
  <xsl:template match="city"><entry><xsl:apply-templates select="sight"/></entry></xsl:template>
  <xsl:template match="sight"><free><xsl:value-of select="@sname"/></free></xsl:template>
</xsl:stylesheet>"#;
    let want = r#"<guide><entry><free sname="The Bean"/><free sname="Art Institute"/><free sname="Central Park"/><free sname="MoMA, Manhattan"/></entry><entry/><entry/></guide>"#;
    assert_eq!(f.run_on_guide(view, xslt, &[]).as_deref(), Ok(want));
    assert_eq!(
        f.run_on_guide(view, xslt, &["--prune"]).as_deref(),
        Ok(want)
    );
    let (_, stdout, stderr) = f.run(&["check", "view.view", "view.xsl", &guide("schema.sql")]);
    for code in ["XVC401", "XVC407", "XVC501"] {
        assert!(!stdout.contains(code), "{code}: {stdout}{stderr}");
    }
}

#[test]
fn explain_prints_the_predicate_that_runs() {
    // Parentheses where precedence needs them, and literals as the SQL
    // reads them: the quote doubled, the float with its decimal point.
    let f = Fixture::new("explain_predicate");
    let explain = |sql: &str| {
        let (ok, stdout, stderr) = f.run(&["explain", "--ddl", &guide("schema.sql"), "--sql", sql]);
        assert!(ok, "{stderr}");
        stdout
    };
    let stdout = explain(
        "SELECT name FROM city WHERE (population > 1 OR id = 2) AND (id = 3 OR name = 'O''Hare')",
    );
    assert!(
        stdout.contains(
            "fused pushdown: (population > 1 OR id = 2) AND (id = 3 OR name = 'O''Hare')\n"
        ),
        "{stdout}"
    );
    let stdout = explain("SELECT name FROM city WHERE population > 3.0");
    assert!(
        stdout.contains("fused pushdown: population > 3.0\n"),
        "{stdout}"
    );
}
