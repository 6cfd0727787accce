//! `xvc serve` — a concurrent publishing server over one shared [`Engine`].
//!
//! The server loads the catalog, data and (composed) view once at startup,
//! publishes the initial document, and then answers requests from a fixed
//! pool of worker threads. Every worker publishes through the same
//! [`Engine`], so prepared plans are compiled once and shared; per-request
//! state (trace, statistics) lives in a throwaway
//! [`Session`](crate::view::Session) per request.
//!
//! The protocol is a deliberately small HTTP/1.1 subset (no external
//! dependencies — the request parser and response writer are hand-rolled
//! over [`std::net::TcpStream`], with keep-alive):
//!
//! | method & path   | body    | response |
//! |-----------------|---------|----------|
//! | `GET /doc`      | —       | the currently published document (XML) |
//! | `GET /publish`  | —       | a fresh `v(I)` against the live database (`?pretty=1` pretty-prints) |
//! | `POST /dml`     | SQL     | executes `INSERT`/`DELETE`, absorbs the delta via [`Session::republish_segments`](crate::view::Session::republish_segments), returns a JSON summary |
//! | `POST /ddl`     | SQL     | executes `CREATE TABLE`/`CREATE INDEX`, republishes in full (the catalog fingerprint changed, so the plan cache recompiles), returns JSON |
//! | `GET /stats`    | —       | engine totals + server counters as JSON |
//! | `GET /healthz`  | —       | `ok` |
//! | `POST /shutdown`| —       | acknowledges, then stops accepting and drains workers |
//!
//! The served document is kept as per-root-task state
//! ([`SpliceIndex`]: each task's fragment, splice provenance and
//! serialized segment) plus the concatenated bytes `/doc` answers with. A
//! write locks that state (writes serialize on it), mutates the database
//! under its write lock, republishes under its read lock — rebuilding and
//! re-serializing only the root tasks the delta reaches — and then swaps
//! in the new bytes. `/doc` locks only to clone the current `Arc<String>`, so
//! a reader never waits on a write and never observes a half-applied
//! mutation. Unknown paths get 404, malformed SQL 400.
//!
//! `GET /publish` **streams**: the response is `Transfer-Encoding:
//! chunked`, produced by [`Session::publish_to`](crate::view::Session::publish_to)
//! writing straight into the socket through a small chunking buffer — the
//! server never materializes the output document for this endpoint, so its
//! peak memory does not scale with document size. A publish error before
//! the first chunk goes out becomes a clean `500`; after bytes are on the
//! wire the connection is closed mid-body, which a chunked client detects
//! as truncation (no terminal chunk). Every other response carries
//! `Content-Length`, so clients can pipeline over one connection; `/doc`
//! serves a shared `Arc<String>` snapshot of the last published document
//! without copying it per request. The server never builds a merged
//! output document: `/doc` bytes are the concatenated task segments.

// Curated clippy::pedantic subset shared with `xvc-rel` / `xvc-view` /
// `xvc-analyze` (kept clean under `-D warnings` in ci.sh).
#![warn(
    clippy::doc_markdown,
    clippy::explicit_iter_loop,
    clippy::items_after_statements,
    clippy::manual_let_else,
    clippy::match_same_arms,
    clippy::needless_pass_by_value,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned,
    clippy::uninlined_format_args
)]

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::rel::Database;
use crate::view::{Engine, SpliceIndex};

/// How long a worker blocks on a socket read before re-checking the
/// shutdown flag. Bounds shutdown latency for idle keep-alive connections.
const READ_POLL: Duration = Duration::from_millis(200);

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// Upper bound on a request body (`/dml`, `/ddl` SQL).
const MAX_BODY: usize = 1024 * 1024;

/// Chunking buffer for streamed responses: bytes queue here and go out as
/// one HTTP/1.1 chunk each time the buffer fills.
const CHUNK_BUF: usize = 8 * 1024;

/// Everything the acceptor and the workers share.
struct State {
    engine: Engine,
    db: RwLock<Database>,
    /// Per-root-task state of the served document, so deltas chain: each
    /// `/dml` republishes from the previous state. Writes serialize on
    /// this mutex; readers never take it.
    served: Mutex<SpliceIndex>,
    /// The served document's bytes, an `Arc<String>` so `/doc` hands the
    /// response body out by reference count; a write wraps the
    /// concatenated segments without copying them again. A write swaps it
    /// once its republish has finished; `/doc` holds the lock only to
    /// clone it.
    doc: RwLock<Arc<String>>,
    running: AtomicBool,
    addr: SocketAddr,
    threads: usize,
    requests: AtomicUsize,
    errors: AtomicUsize,
}

/// A running `xvc serve` instance: an acceptor thread feeding a fixed
/// worker pool over a channel. Start with [`Server::start`]; stop with
/// [`Server::shutdown`] (or `POST /shutdown`) and reap with
/// [`Server::join`].
pub struct Server {
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7070`; port `0` picks a free one),
    /// publishes the initial document from `db` through `engine` as
    /// per-root-task segments ([`Session::publish_segments`](crate::view::Session::publish_segments))
    /// — which warms the shared plan cache before the first request
    /// arrives — and spawns `threads` workers (at least one).
    pub fn start(engine: Engine, db: Database, addr: &str, threads: usize) -> io::Result<Server> {
        let served = engine
            .session()
            .publish_segments(&db)
            .map_err(|e| io::Error::other(e.to_string()))?
            .splice;
        let xml = Arc::new(served.xml());
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = threads.max(1);
        let state = Arc::new(State {
            engine,
            db: RwLock::new(db),
            served: Mutex::new(served),
            doc: RwLock::new(xml),
            running: AtomicBool::new(true),
            addr: local,
            threads,
            requests: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
        });
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("xvc-serve-{i}"))
                    .spawn(move || worker_loop(&state, &rx))?,
            );
        }
        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("xvc-serve-accept".to_owned())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if !state.running.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            // A send only fails after every worker exited,
                            // which only happens once tx is dropped — i.e.
                            // never while we are still accepting.
                            let _ = tx.send(stream);
                        }
                    }
                    // Dropping tx closes the channel; workers drain what
                    // was queued and then exit.
                })?
        };
        Ok(Server {
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (the resolved port when started with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Requests served so far (all endpoints, including errors).
    pub fn requests(&self) -> usize {
        self.state.requests.load(Ordering::SeqCst)
    }

    /// Stops accepting new connections and tells workers to finish up.
    /// Idempotent; `join` afterwards to wait for them.
    pub fn shutdown(&self) {
        self.state.running.store(false, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.state.addr);
    }

    /// Waits for the acceptor and every worker to exit. Call after
    /// [`Server::shutdown`] (or let a `POST /shutdown` trigger it) —
    /// joining a server nobody asked to stop blocks until somebody does.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One parsed request off the wire.
struct Request {
    method: String,
    path: String,
    query: String,
    body: Vec<u8>,
    close: bool,
}

/// A response body: owned text, or a shared snapshot (`/doc`) handed out
/// by reference count.
enum Body {
    Text(String),
    Shared(Arc<String>),
}

impl Body {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Text(s) => s.as_bytes(),
            Body::Shared(s) => s.as_bytes(),
        }
    }
}

/// One response about to go onto the wire.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Body,
    /// Set by `POST /shutdown`: reply first, then stop the server.
    shutdown: bool,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body: Body::Text(body),
            shutdown: false,
        }
    }

    fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Text(format!("{message}\n")),
            shutdown: false,
        }
    }
}

fn worker_loop(state: &Arc<State>, rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let stream = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(stream) = stream else {
            break; // channel closed: the acceptor is gone
        };
        let _ = handle_conn(state, stream);
    }
}

/// Serves one connection until the client closes it, asks to close, or the
/// server shuts down. Errors just drop the connection — the client sees a
/// reset, the server moves on.
fn handle_conn(state: &Arc<State>, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let Some(request) = read_request(&mut reader, &state.running)? else {
            return Ok(()); // clean close (EOF, or idle at shutdown)
        };
        state.requests.fetch_add(1, Ordering::SeqCst);
        if request.path == "/publish" && matches!(request.method.as_str(), "GET" | "POST") {
            // Streamed endpoint: the session writes chunked XML straight
            // into the socket — no Response, no output document.
            let keep = !request.close && state.running.load(Ordering::SeqCst);
            match stream_publish(state, &request.query, &mut out, keep) {
                Ok(true) => {}
                Ok(false) => {
                    // Failed before the first byte: a clean 500 went out.
                    state.errors.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => {
                    // Mid-body failure: the body is truncated (no terminal
                    // chunk); drop the connection so the client notices.
                    state.errors.fetch_add(1, Ordering::SeqCst);
                    return Err(e);
                }
            }
            if !keep {
                return Ok(());
            }
            continue;
        }
        let response = dispatch(state, &request);
        if response.status >= 400 {
            state.errors.fetch_add(1, Ordering::SeqCst);
        }
        let keep = !request.close && !response.shutdown && state.running.load(Ordering::SeqCst);
        write_response(&mut out, &response, keep)?;
        if response.shutdown {
            state.running.store(false, Ordering::SeqCst);
            let _ = TcpStream::connect(state.addr); // wake the acceptor
        }
        if !keep {
            return Ok(());
        }
    }
}

/// Reads one request head + body. `Ok(None)` means "close the connection
/// quietly": EOF between requests, or shutdown while idle. Socket-read
/// timeouts are retried while the server runs so keep-alive connections
/// can sit idle without pinning an error path.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    running: &AtomicBool,
) -> io::Result<Option<Request>> {
    let mut head_budget = MAX_HEAD;
    let Some(request_line) = read_head_line(reader, running, &mut head_budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(io::Error::other("malformed request line"));
    };
    let (method, target) = (method.to_owned(), target.to_owned());
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let Some(line) = read_head_line(reader, running, &mut head_budget)? else {
            return Ok(None);
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| io::Error::other("bad content-length"))?;
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::other("request body too large"));
    }
    let Some(body) = read_body(reader, content_length, running)? else {
        return Ok(None);
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        close,
    }))
}

/// One CRLF-terminated head line, timeouts retried while `running`.
/// `Ok(None)`: EOF with nothing buffered, or shutdown.
///
/// The line's bytes, line ending included, are charged against `budget`,
/// the part of [`MAX_HEAD`] still left, and no read goes past it: a line
/// that does not end within the budget fails with "request head too
/// large" after buffering at most `budget` bytes, however long the client
/// keeps sending.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    running: &AtomicBool,
    budget: &mut usize,
) -> io::Result<Option<String>> {
    let mut limited = reader.take(*budget as u64);
    let mut line = String::new();
    loop {
        let read = limited.read_line(&mut line);
        *budget = usize::try_from(limited.limit()).unwrap_or(0);
        match read {
            Ok(_) if *budget == 0 && !line.ends_with('\n') => {
                return Err(io::Error::other("request head too large"));
            }
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(line.trim_end_matches(['\r', '\n']).to_owned())),
            Err(e) if is_timeout(&e) => {
                if !running.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return Ok(None),
            Err(e) => return Err(e),
        }
    }
}

fn read_body(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    running: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Ok(None),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if !running.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(body))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes `response` with its head and body in one vectored write; the
/// rest goes out through `write_all` when the writer takes only part.
fn write_response(out: &mut impl Write, response: &Response, keep_alive: bool) -> io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let body = response.body.as_bytes();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let head = head.as_bytes();
    let sent = match out.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    if sent < head.len() {
        out.write_all(&head[sent..])?;
        out.write_all(body)?;
    } else {
        out.write_all(&body[sent - head.len()..])?;
    }
    out.flush()
}

/// Chunked-transfer writer for streamed responses. Bytes buffer up to
/// [`CHUNK_BUF`] and leave as one `len\r\n…\r\n` chunk, framed into a
/// single write; the response head itself is deferred until the first
/// chunk (or `finish`), and joins that chunk's write, so a producer that
/// fails before yielding any output leaves the wire untouched and the
/// caller can still send a clean error response. The terminal
/// `0\r\n\r\n` joins the last chunk's write.
struct ChunkedWriter<'a, W: Write> {
    out: &'a mut W,
    buf: Vec<u8>,
    /// The bytes of the next write: the head (first time), the framed
    /// chunk and, on `finish`, the terminal chunk.
    wire: Vec<u8>,
    /// Deferred response head; `None` once on the wire.
    head: Option<String>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    fn new(out: &'a mut W, head: String) -> ChunkedWriter<'a, W> {
        ChunkedWriter {
            out,
            buf: Vec::with_capacity(CHUNK_BUF),
            wire: Vec::new(),
            head: Some(head),
        }
    }

    /// Nothing on the wire yet: the caller may still respond normally.
    fn untouched(&self) -> bool {
        self.head.is_some()
    }

    /// Sends the deferred head, the buffered chunk and, when `last`, the
    /// terminal chunk, in one write.
    fn flush_chunk(&mut self, last: bool) -> io::Result<()> {
        self.wire.clear();
        if let Some(head) = self.head.take() {
            self.wire.extend_from_slice(head.as_bytes());
        }
        if !self.buf.is_empty() {
            write!(self.wire, "{:x}\r\n", self.buf.len())?;
            self.wire.extend_from_slice(&self.buf);
            self.wire.extend_from_slice(b"\r\n");
            self.buf.clear();
        }
        if last {
            self.wire.extend_from_slice(b"0\r\n\r\n");
        }
        if self.wire.is_empty() {
            return Ok(());
        }
        self.out.write_all(&self.wire)
    }

    /// Flushes the tail chunk with the terminal `0\r\n\r\n`.
    fn finish(mut self) -> io::Result<()> {
        self.flush_chunk(true)?;
        self.out.flush()
    }
}

impl<W: Write> io::Write for ChunkedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        if self.buf.len() >= CHUNK_BUF {
            self.flush_chunk(false)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_chunk(false)?;
        self.out.flush()
    }
}

fn dispatch(state: &Arc<State>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::ok("text/plain; charset=utf-8", "ok\n".to_owned()),
        ("GET", "/doc") => {
            let xml = Arc::clone(&state.doc.read().unwrap_or_else(PoisonError::into_inner));
            Response {
                status: 200,
                content_type: "application/xml; charset=utf-8",
                body: Body::Shared(xml),
                shutdown: false,
            }
        }
        ("POST", "/dml") => handle_dml(state, &request.body),
        ("POST", "/ddl") => handle_ddl(state, &request.body),
        ("GET", "/stats") => Response::ok("application/json", stats_json(state)),
        ("POST", "/shutdown") => Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: Body::Text("shutting down\n".to_owned()),
            shutdown: true,
        },
        ("GET" | "POST", _) => Response::error(404, &format!("no such endpoint: {}", request.path)),
        _ => Response::error(405, &format!("unsupported method: {}", request.method)),
    }
}

/// `GET /publish`: a fresh publish against the live database through a
/// throwaway session, streamed to the client as a chunked response —
/// [`Session::publish_to`](crate::view::Session::publish_to) serializes
/// each root-level subtree into the socket as it is produced, so the
/// output document is never materialized server-side. Concurrent calls
/// share the warm plan cache and block only if a write is mid-flight.
///
/// Returns `Ok(true)` when the response (streamed 200) completed,
/// `Ok(false)` when the publish failed before any output and a clean 500
/// was written instead, and `Err` when the body was truncated mid-stream
/// (caller drops the connection).
fn stream_publish(
    state: &Arc<State>,
    query: &str,
    out: &mut TcpStream,
    keep_alive: bool,
) -> io::Result<bool> {
    let pretty = query_flag(query, "pretty");
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/xml; charset=utf-8\r\n\
         Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    );
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    let mut session = state.engine.session();
    let mut writer = ChunkedWriter::new(out, head);
    let result = if pretty {
        session.publish_pretty_to(&db, &mut writer)
    } else {
        session.publish_to(&db, &mut writer)
    };
    match result {
        Ok(_) => {
            writer.finish()?;
            Ok(true)
        }
        Err(e) => {
            if writer.untouched() {
                drop(writer);
                let response = Response::error(500, &format!("publish failed: {e}"));
                write_response(out, &response, keep_alive)?;
                Ok(false)
            } else {
                Err(io::Error::other(format!("publish failed mid-stream: {e}")))
            }
        }
    }
}

/// `POST /dml`: executes the SQL, asks the cached plans which view nodes
/// the delta reaches, and rebuilds only the root tasks holding them
/// ([`Session::republish_segments`](crate::view::Session::republish_segments)).
/// Lock order is served → db.write (mutation) → db.read (republish) →
/// doc.write (the swap); every write takes the same order, so writes
/// serialize while `/doc` readers keep being served the previous bytes.
fn handle_dml(state: &Arc<State>, body: &[u8]) -> Response {
    let Ok(sql) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let mut served = state.served.lock().unwrap_or_else(PoisonError::into_inner);
    let delta = {
        let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
        match db.execute_dml(sql) {
            Ok(delta) => delta,
            Err(e) => return Response::error(400, &format!("dml failed: {e}")),
        }
    };
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    match state
        .engine
        .session()
        .republish_segments(&db, &served, &delta)
    {
        Ok(next) => {
            let stats = &next.stats;
            let body = format!(
                "{{\"delta_rows\":{},\"nodes_respliced\":{},\"batches_reexecuted\":{},\"elements\":{}}}\n",
                delta.row_count(),
                stats.nodes_respliced,
                stats.batches_reexecuted,
                stats.elements,
            );
            swap_served(state, &mut served, next.splice);
            Response::ok("application/json", body)
        }
        Err(e) => Response::error(500, &format!("republish failed: {e}")),
    }
}

/// Installs `next` as the served state and swaps its bytes in for `/doc`.
fn swap_served(state: &State, served: &mut SpliceIndex, next: SpliceIndex) {
    let xml = Arc::new(next.xml());
    *state.doc.write().unwrap_or_else(PoisonError::into_inner) = xml;
    *served = next;
}

/// `POST /ddl`: `CREATE TABLE` / `CREATE INDEX` against the live database.
/// The catalog fingerprint changes, so the next publish recompiles the
/// shared plan cache; the served document is republished in full here so
/// `/doc` never trails the schema.
fn handle_ddl(state: &Arc<State>, body: &[u8]) -> Response {
    let Ok(sql) = std::str::from_utf8(body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let mut served = state.served.lock().unwrap_or_else(PoisonError::into_inner);
    let applied = {
        let mut db = state.db.write().unwrap_or_else(PoisonError::into_inner);
        match db.execute_ddl(sql) {
            Ok(applied) => applied,
            Err(e) => return Response::error(400, &format!("ddl failed: {e}")),
        }
    };
    let db = state.db.read().unwrap_or_else(PoisonError::into_inner);
    match state.engine.session().publish_segments(&db) {
        Ok(next) => {
            swap_served(state, &mut served, next.splice);
            Response::ok(
                "application/json",
                format!("{{\"statements\":{applied}}}\n"),
            )
        }
        Err(e) => Response::error(500, &format!("republish failed: {e}")),
    }
}

/// `GET /stats`: engine totals (all sessions, all workers) plus server
/// counters, as one flat JSON object.
fn stats_json(state: &Arc<State>) -> String {
    let totals = state.engine.totals();
    let s = &totals.stats;
    format!(
        concat!(
            "{{\"publishes\":{},\"delta_publishes\":{},",
            "\"plans_prepared\":{},\"plan_cache_hits\":{},\"plan_cache_hit_rate\":{:.6},",
            "\"elements\":{},\"queries_run\":{},\"tuples_fetched\":{},",
            "\"nodes_respliced\":{},\"batches_reexecuted\":{},",
            "\"requests\":{},\"errors\":{},\"threads\":{}}}\n"
        ),
        totals.publishes,
        totals.delta_publishes,
        s.plans_prepared,
        s.plan_cache_hits,
        s.plan_cache_hit_rate(),
        s.elements,
        s.queries_run,
        s.tuples_fetched,
        s.nodes_respliced,
        s.batches_reexecuted,
        state.requests.load(Ordering::SeqCst),
        state.errors.load(Ordering::SeqCst),
        state.threads,
    )
}

/// `true` when `name` appears in the query string as `name`, `name=1` or
/// `name=true`.
fn query_flag(query: &str, name: &str) -> bool {
    query.split('&').any(|pair| {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        key == name && matches!(value, "" | "1" | "true")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records every write call's bytes; with `whole`, a
    /// vectored write takes every buffer at once, as a socket does.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        whole: bool,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.whole {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| &b[..]));
            }
            let all: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            self.writes.push(all);
            Ok(self.writes.last().map_or(0, Vec::len))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Decodes a chunked body, checking each chunk's framing.
    fn dechunk(mut wire: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        loop {
            let eol = wire
                .windows(2)
                .position(|w| w == b"\r\n")
                .expect("size line");
            let size = std::str::from_utf8(&wire[..eol]).expect("ascii size");
            let size = usize::from_str_radix(size, 16).expect("hex size");
            wire = &wire[eol + 2..];
            if size == 0 {
                assert_eq!(wire, b"\r\n", "terminal chunk");
                return body;
            }
            body.extend_from_slice(&wire[..size]);
            assert_eq!(&wire[size..size + 2], b"\r\n", "chunk end");
            wire = &wire[size + 2..];
        }
    }

    #[test]
    fn one_write_per_chunk_head_and_terminal_included() {
        let data: Vec<u8> = (0..20_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let mut out = Recorder::default();
        let mut w = ChunkedWriter::new(&mut out, "HEAD\r\n\r\n".to_owned());
        for piece in data.chunks(1_000) {
            w.write_all(piece).unwrap();
        }
        assert!(!w.untouched());
        w.finish().unwrap();
        // Chunks leave at 9,000 and 18,000 bytes; the 2,000-byte tail
        // leaves with the terminal chunk.
        assert_eq!(out.writes.len(), 3);
        assert!(out.writes[0].starts_with(b"HEAD\r\n\r\n2328\r\n"));
        assert!(out.writes[2].starts_with(b"7d0\r\n"));
        assert!(out.writes[2].ends_with(b"\r\n0\r\n\r\n"));
        let wire = out.writes.concat();
        assert_eq!(dechunk(&wire[b"HEAD\r\n\r\n".len()..]), data);
    }

    #[test]
    fn a_short_or_empty_stream_is_one_write() {
        for data in [&b""[..], b"<a/>"] {
            let mut out = Recorder::default();
            let mut w = ChunkedWriter::new(&mut out, "H\r\n\r\n".to_owned());
            w.write_all(data).unwrap();
            assert!(w.untouched(), "nothing leaves before a chunk fills");
            w.finish().unwrap();
            assert_eq!(out.writes.len(), 1);
            assert_eq!(dechunk(&out.writes[0][b"H\r\n\r\n".len()..]), data);
        }
    }

    #[test]
    fn a_response_is_one_vectored_write_or_falls_back() {
        let response = Response::ok("text/plain; charset=utf-8", "hello\n".to_owned());
        for whole in [true, false] {
            let mut out = Recorder {
                whole,
                ..Recorder::default()
            };
            write_response(&mut out, &response, true).unwrap();
            assert_eq!(out.writes.len(), if whole { 1 } else { 2 });
            let wire = String::from_utf8(out.writes.concat()).unwrap();
            assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
            assert!(
                wire.ends_with("Content-Length: 6\r\nConnection: keep-alive\r\n\r\nhello\n"),
                "{wire}"
            );
        }
    }
}
