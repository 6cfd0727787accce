//! End-to-end tests for `xvc::serve`: an in-process server on an ephemeral
//! port, exercised over real sockets with the guide workload
//! (`examples/files/`). The invariant under test is the server one: every
//! served document is byte-identical to what a single-process publish of
//! the same (composed) view produces, before and after writes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use xvc::prelude::*;
use xvc::serve::Server;

fn guide_database() -> Database {
    let ddl = std::fs::read_to_string("examples/files/schema.sql").expect("schema.sql");
    let mut db = xvc::rel::database_from_ddl(&ddl).expect("catalog");
    for table in ["city", "sight"] {
        let csv = std::fs::read_to_string(format!("examples/files/data/{table}.csv"))
            .expect("csv fixture");
        xvc::rel::load_csv(&mut db, table, &csv).expect("csv load");
    }
    db
}

fn guide_composed(db: &Database) -> SchemaTree {
    let view = xvc::view::parse_view(
        &std::fs::read_to_string("examples/files/guide.view").expect("guide.view"),
    )
    .expect("view parses");
    let xslt =
        parse_stylesheet(&std::fs::read_to_string("examples/files/guide.xsl").expect("guide.xsl"))
            .expect("stylesheet parses");
    Composer::new(&view, &xslt, &db.catalog())
        .run()
        .expect("composes")
        .view
}

/// Minimal blocking HTTP/1.1 client over one keep-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Whether the last response arrived with `Transfer-Encoding: chunked`.
    last_chunked: bool,
    /// `Content-Type` of the last response.
    last_content_type: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            last_chunked: false,
            last_content_type: String::new(),
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes()).expect("send head");
        self.writer.write_all(body.as_bytes()).expect("send body");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        let mut chunked = false;
        self.last_content_type.clear();
        loop {
            let mut header = String::new();
            assert_ne!(
                self.reader.read_line(&mut header).expect("header"),
                0,
                "connection closed mid-response"
            );
            if header.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().expect("content-length");
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.trim().eq_ignore_ascii_case("chunked");
                } else if name.eq_ignore_ascii_case("content-type") {
                    self.last_content_type = value.trim().to_owned();
                }
            }
        }
        self.last_chunked = chunked;
        let buf = if chunked {
            self.read_chunked_body()
        } else {
            let mut buf = vec![0u8; content_length];
            self.reader.read_exact(&mut buf).expect("body");
            buf
        };
        (status, String::from_utf8(buf).expect("utf-8 body"))
    }

    /// Decodes a `Transfer-Encoding: chunked` body: `len\r\n…\r\n` frames
    /// down to the terminal zero-length chunk. Panics on a truncated body
    /// (connection closed without the terminal chunk).
    fn read_chunked_body(&mut self) -> Vec<u8> {
        let mut body = Vec::new();
        loop {
            let mut size_line = String::new();
            assert_ne!(
                self.reader.read_line(&mut size_line).expect("chunk size"),
                0,
                "connection closed mid-chunked-body (truncated response)"
            );
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            let mut chunk = vec![0u8; size + 2]; // chunk data + trailing CRLF
            self.reader.read_exact(&mut chunk).expect("chunk data");
            assert_eq!(&chunk[size..], b"\r\n", "chunk not CRLF-terminated");
            chunk.truncate(size);
            if size == 0 {
                return body;
            }
            body.extend_from_slice(&chunk);
        }
    }
}

fn counter(stats: &str, key: &str) -> u64 {
    let start = stats.find(&format!("\"{key}\":")).expect("counter present") + key.len() + 3;
    let rest = &stats[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().expect("numeric counter")
}

#[test]
fn concurrent_clients_get_byte_identical_documents() {
    let db = guide_database();
    let composed = guide_composed(&db);
    let expected = Engine::new(&composed)
        .session()
        .publish(&db)
        .expect("reference publish")
        .document
        .to_xml();

    let server = Server::start(Engine::new(&composed).parallel(2), db, "127.0.0.1:0", 4)
        .expect("server starts");
    let addr = server.addr();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let expected = expected.as_str();
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..5 {
                    let (status, body) = client.request("GET", "/publish", "");
                    assert_eq!(status, 200);
                    assert_eq!(body, expected, "served /publish diverged");
                    let (status, body) = client.request("GET", "/doc", "");
                    assert_eq!(status, 200);
                    assert_eq!(body, expected, "served /doc diverged");
                }
            });
        }
    });

    let mut client = Client::connect(addr);
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    // Startup publish + 8 clients x 5 /publish requests.
    assert_eq!(counter(&stats, "publishes"), 41);
    // One session (the startup publish) compiled every plan; all 40
    // concurrent publishes were pure cache hits.
    let prepared = counter(&stats, "plans_prepared");
    let hits = counter(&stats, "plan_cache_hits");
    assert!(prepared > 0, "startup publish should compile plans");
    assert_eq!(hits % prepared, 0, "hits must be whole warm publishes");
    assert_eq!(hits / prepared, 40, "every request should hit the cache");
    assert_eq!(counter(&stats, "errors"), 0);

    let (status, _) = client.request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join();
}

#[test]
fn dml_and_ddl_keep_the_served_document_current() {
    let db = guide_database();
    let composed = guide_composed(&db);
    let expected_before = Engine::new(&composed)
        .session()
        .publish(&db)
        .expect("reference publish")
        .document
        .to_xml();

    // Reference: the same mutations applied to a private database copy.
    let mut post_db = guide_database();
    post_db
        .execute_dml("INSERT INTO sight VALUES (99, 1, 'Navy Pier', 0)")
        .expect("reference dml");
    let expected_after = Engine::new(&composed)
        .session()
        .publish(&post_db)
        .expect("reference publish")
        .document
        .to_xml();

    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 2).expect("server starts");
    let mut client = Client::connect(server.addr());

    let (status, inserted) = client.request(
        "POST",
        "/dml",
        "INSERT INTO sight VALUES (99, 1, 'Navy Pier', 0)",
    );
    assert_eq!(status, 200, "dml failed: {inserted}");
    assert!(
        inserted.contains("\"delta_rows\":1"),
        "unexpected dml reply: {inserted}"
    );

    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    assert_eq!(doc, expected_after, "/doc trails the DML");
    assert!(!client.last_chunked, "/doc is a Content-Length snapshot");
    assert_eq!(client.last_content_type, "application/xml; charset=utf-8");
    let (status, fresh) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert_eq!(fresh, expected_after, "/publish trails the DML");
    assert!(client.last_chunked, "/publish should stream chunked");
    assert_eq!(client.last_content_type, "application/xml; charset=utf-8");

    // DDL: changes the catalog fingerprint (plan cache recompiles), but
    // never the document.
    let (status, body) = client.request(
        "POST",
        "/ddl",
        "CREATE INDEX city_pop ON city (population) USING BTREE",
    );
    assert_eq!(status, 200, "ddl failed: {body}");
    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    assert_eq!(doc, expected_after, "an index changed the document");

    // A write after the DDL is still a delta, under the new catalog's
    // compilation: deleting the row re-executes what inserting it did and
    // restores the original document.
    let (status, deleted) = client.request("POST", "/dml", "DELETE FROM sight WHERE sid = 99");
    assert_eq!(status, 200, "dml failed: {deleted}");
    assert_eq!(
        counter(&deleted, "batches_reexecuted"),
        counter(&inserted, "batches_reexecuted"),
        "the delete after the DDL was not a delta: {deleted} vs {inserted}"
    );
    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    assert_eq!(doc, expected_before, "/doc trails the DELETE");
    let (status, fresh) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert_eq!(fresh, expected_before, "/publish trails the DELETE");

    // Error paths stay on the connection: bad SQL is a 400, unknown
    // endpoints 404, and the connection keeps serving afterwards.
    let (status, _) = client.request("POST", "/dml", "UPDATE sight SET fee = 1");
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/doc", "");
    assert_eq!(status, 405);
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(counter(&stats, "errors"), 3);
    assert_eq!(counter(&stats, "delta_publishes"), 2);

    server.shutdown();
    server.join();
}

#[test]
fn rejected_multi_row_insert_leaves_no_drift() {
    let db = guide_database();
    let composed = guide_composed(&db);
    let expected = Engine::new(&composed)
        .session()
        .publish(&db)
        .expect("reference publish")
        .document
        .to_xml();
    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 2).expect("server starts");
    let mut client = Client::connect(server.addr());

    // The third row's NULL violates `sid INT PRIMARY KEY`: the statement
    // fails whole, so neither free Chicago sight may appear anywhere.
    let (status, body) = client.request(
        "POST",
        "/dml",
        "INSERT INTO sight VALUES (20, 1, 'Navy Pier', 0), (21, 1, 'Riverwalk', 0), \
         (NULL, 1, 'Nowhere', 0)",
    );
    assert_eq!(status, 400, "a failing statement must be rejected: {body}");
    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    let (status, fresh) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert_eq!(doc, fresh, "/doc drifted from the database");
    assert_eq!(fresh, expected, "a rejected statement changed the database");

    server.shutdown();
    server.join();
}

#[test]
fn rejected_ddl_batch_leaves_no_trace() {
    let db = guide_database();
    let composed = guide_composed(&db);
    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 2).expect("server starts");
    let mut client = Client::connect(server.addr());

    // The second statement names an unknown table, so the whole batch is
    // rejected and `audit` must not exist afterwards.
    let (status, body) = client.request(
        "POST",
        "/ddl",
        "CREATE TABLE audit (id INT); CREATE INDEX ON missing (x)",
    );
    assert_eq!(status, 400, "a failing batch must be rejected: {body}");
    let (status, body) = client.request("POST", "/ddl", "CREATE TABLE audit (id INT)");
    assert_eq!(
        status, 200,
        "the rejected batch left `audit` behind: {body}"
    );
    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    let (status, fresh) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert_eq!(doc, fresh, "/doc drifted from the database");

    server.shutdown();
    server.join();
}

#[test]
fn doc_reads_during_writes_see_only_whole_documents() {
    const INSERT: &str = "INSERT INTO sight VALUES (99, 1, 'Navy Pier', 0)";
    const DELETE: &str = "DELETE FROM sight WHERE sid = 99";
    let db = guide_database();
    let composed = guide_composed(&db);
    let publish = |db: &Database| {
        Engine::new(&composed)
            .session()
            .publish(db)
            .expect("reference publish")
            .document
            .to_xml()
    };
    let without = publish(&db);
    let mut toggled = guide_database();
    toggled.execute_dml(INSERT).expect("reference dml");
    let with = publish(&toggled);
    assert_ne!(without, with, "the toggled row must show in the document");

    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 2).expect("server starts");
    let addr = server.addr();
    let writing = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut client = Client::connect(addr);
            for _ in 0..40 {
                for sql in [INSERT, DELETE] {
                    let (status, body) = client.request("POST", "/dml", sql);
                    assert_eq!(status, 200, "{sql}: {body}");
                }
            }
            writing.store(false, std::sync::atomic::Ordering::SeqCst);
        });
        scope.spawn(|| {
            let mut client = Client::connect(addr);
            let mut reads = 0;
            while writing.load(std::sync::atomic::Ordering::SeqCst) || reads < 20 {
                let (status, doc) = client.request("GET", "/doc", "");
                assert_eq!(status, 200);
                assert!(
                    doc == without || doc == with,
                    "/doc served neither legal document: {doc}"
                );
                reads += 1;
            }
        });
    });

    // Every toggle ended with its delete: all views agree on the start state.
    let mut client = Client::connect(addr);
    let (status, doc) = client.request("GET", "/doc", "");
    assert_eq!(status, 200);
    let (status, fresh) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert_eq!(doc, without, "/doc drifted");
    assert_eq!(fresh, without, "/publish drifted");
    let (status, stats) = client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(counter(&stats, "delta_publishes"), 80);
    assert_eq!(counter(&stats, "errors"), 0);

    server.shutdown();
    server.join();
}

#[test]
fn streamed_publish_pretty_matches_reference_serializer() {
    let db = guide_database();
    let composed = guide_composed(&db);
    let reference = Engine::new(&composed)
        .session()
        .publish(&db)
        .expect("reference publish");
    let expected_compact = reference.document.to_xml();
    let expected_pretty = reference.document.to_pretty_xml();

    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 2).expect("server starts");
    let mut client = Client::connect(server.addr());

    // Both layouts stream chunked and decode to exactly what the arena
    // serializers would have produced.
    let (status, body) = client.request("GET", "/publish", "");
    assert_eq!(status, 200);
    assert!(client.last_chunked);
    assert_eq!(body, expected_compact);

    let (status, body) = client.request("GET", "/publish?pretty=1", "");
    assert_eq!(status, 200);
    assert!(client.last_chunked);
    assert_eq!(body, expected_pretty);

    server.shutdown();
    server.join();
}

#[test]
fn oversized_head_line_drops_the_connection() {
    let db = guide_database();
    let composed = guide_composed(&db);
    // One worker: if the oversized connection pinned it, /healthz below
    // could not be answered.
    let server =
        Server::start(Engine::new(&composed), db, "127.0.0.1:0", 1).expect("server starts");

    // A request line, then 64 KiB of one header line that never ends. The
    // server must stop at its head budget and drop the connection rather
    // than buffer for as long as the client keeps sending.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut payload = b"GET /doc HTTP/1.1\r\nX-Filler: ".to_vec();
    payload.resize(payload.len() + 64 * 1024, b'a');
    // The server may reset the connection before it has read everything.
    let _ = stream.write_all(&payload);
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => assert!(
            reply.is_empty(),
            "expected a dropped connection, got a reply: {}",
            String::from_utf8_lossy(&reply)
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
            ),
            "expected a dropped connection, got: {e}"
        ),
    }

    let mut client = Client::connect(server.addr());
    let (status, body) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    server.shutdown();
    server.join();
}
