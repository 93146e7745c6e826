//! The TCP front-end: one [`Server`] wraps a [`SignoffService`] and
//! speaks the line-delimited JSON protocol of [`crate::proto`] on a
//! loopback listener (`std::net` only — no async runtime, one thread
//! per connection, which is plenty for a signoff queue's fan-in). At
//! most [`MAX_CONNECTIONS`] connections are served at once.

use crate::codec::{read_frame, MAX_LINE_BYTES};
use crate::proto::{ErrorObj, Request, Response, PROTO_VERSION};
use crate::service::{SignoffService, SubmitError};
use dfm_fault::FaultPlane;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Fault site: a server response write. Keyed by connection id (accept
/// order); `attempt` is the frame index on that connection. A firing
/// `Drop` rule tears the frame mid-line and slams the socket shut —
/// the client sees a torn frame, the server keeps serving everyone
/// else.
pub const SITE_SERVER_WRITE: &str = "server.write";

/// Live connections a server holds at once, each on its own thread. A
/// connection over the cap is answered with one `busy` error frame and
/// closed, so a flood of clients cannot spawn unbounded threads.
pub const MAX_CONNECTIONS: usize = 64;

/// A listening signoff server. Bind, then [`Server::serve`] until a
/// client sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    service: Arc<SignoffService>,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
}

/// Counts one served connection for as long as its thread runs.
struct LiveSlot(Arc<AtomicUsize>);

impl LiveSlot {
    fn take(live: &Arc<AtomicUsize>) -> LiveSlot {
        live.fetch_add(1, Ordering::SeqCst);
        LiveSlot(Arc::clone(live))
    }
}

impl Drop for LiveSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds to `127.0.0.1:port` (`port = 0` picks an ephemeral port;
    /// read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Socket diagnostics.
    pub fn bind(service: Arc<SignoffService>, port: u16) -> Result<Server, String> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        Ok(Server {
            listener,
            service,
            shutdown: Arc::new(AtomicBool::new(false)),
            live: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen after
    /// a successful bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Accepts and serves connections until a `shutdown` frame
    /// arrives. Each connection gets its own thread; requests on one
    /// connection are handled in order. Past [`MAX_CONNECTIONS`] live
    /// connections a new one gets a single v2 `busy` error frame and is
    /// closed unread.
    ///
    /// # Errors
    ///
    /// Accept-loop diagnostics.
    pub fn serve(&self) -> Result<(), String> {
        let addr = self.local_addr();
        for (conn_id, conn) in (0_u64..).zip(self.listener.incoming()) {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut stream = conn.map_err(|e| format!("accept: {e}"))?;
            // Only this loop adds to `live`, so the check cannot race
            // another increment.
            if self.live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                let error = ErrorObj {
                    code: "busy".to_string(),
                    message: format!("server holds {MAX_CONNECTIONS} connections; retry later"),
                    retry_after_vms: None,
                };
                let busy = Response::Error { error };
                let _ = write_response(&mut stream, None, conn_id, 0, &busy, PROTO_VERSION);
                continue;
            }
            let slot = LiveSlot::take(&self.live);
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&self.shutdown);
            std::thread::spawn(move || {
                let _slot = slot;
                let _ = handle_connection(stream, &service, &shutdown, addr, conn_id);
            });
        }
        Ok(())
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &SignoffService,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    conn_id: u64,
) -> std::io::Result<()> {
    let plane = service.fault_plane().cloned();
    let mut writer = stream.try_clone()?;
    let mut frame: u64 = 0;
    let mut write = |writer: &mut TcpStream, response: &Response, version: u64| {
        let this_frame = frame;
        frame += 1;
        write_response(writer, plane.as_ref(), conn_id, this_frame, response, version)
    };
    let mut reader = BufReader::new(stream);
    // Each response is framed in the dialect of the request it answers
    // (v1 peers hear v1 shapes). Until a request parses, fall back to
    // the last version spoken on this connection -- v1 at first, since
    // its error shape is the one both generations can read.
    let mut version = 1;
    loop {
        let line = match read_frame(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // clean disconnect
            Err(e) => {
                // Framing violation (oversized line, torn frame,
                // bad UTF-8): answer once, then drop the connection.
                let error = ErrorObj { code: "bad_request".to_string(), message: e, retry_after_vms: None };
                write(&mut writer, &Response::Error { error }, version)?;
                return Ok(());
            }
        };
        let request = match Request::parse_versioned(&line) {
            Ok((r, v)) => {
                version = v;
                r
            }
            Err(e) => {
                let error = ErrorObj { code: "bad_request".to_string(), message: e, retry_after_vms: None };
                write(&mut writer, &Response::Error { error }, version)?;
                continue;
            }
        };
        let stop = matches!(request, Request::Shutdown { .. });
        let response = handle_request(service, request);
        if stop {
            // Latch shutdown before answering, so a dropped (injected
            // or real) response write cannot strand a stopping server.
            // For a drain, handle_request already parked every job and
            // waited the pool idle before we get here.
            shutdown.store(true, Ordering::SeqCst);
        }
        let wrote = write(&mut writer, &response, version);
        if stop {
            // Unblock the accept loop so serve() can return.
            let _ = TcpStream::connect(addr);
            return Ok(());
        }
        wrote?;
    }
}

fn handle_request(service: &SignoffService, request: Request) -> Response {
    let result = match request {
        Request::Ping => Ok(Response::Pong),
        Request::Submit { spec, gds, idem } => service
            .submit_job_idem(spec, gds, idem.as_deref())
            .map(|job| Response::Submitted { job })
            .map_err(|e| match e {
                // A spec/GDS diagnostic is the client's fault; an
                // admission refusal carries its typed code and, for
                // backpressure, the deterministic retry hint.
                SubmitError::Invalid(message) => ErrorObj {
                    code: "bad_request".to_string(),
                    message,
                    retry_after_vms: None,
                },
                SubmitError::Rejected(r) => ErrorObj::from(r),
            }),
        Request::Status { job } => service.status(job).map(Response::Status).map_err(classify),
        Request::Events { job, since } => service
            .events(job, since)
            .map(|events| {
                let next_seq = events.last().map_or(since, |e| e.seq + 1);
                Response::Events { events, next_seq }
            })
            .map_err(classify),
        Request::Results { job, partial } => service
            .report_text(job, partial)
            .map(|(status, report_text)| Response::Results { status, report_text })
            .map_err(classify),
        Request::Score { job } => service
            .score_json(job)
            .map(|(status, score_json)| Response::Score { status, score_json })
            .map_err(classify),
        Request::Cancel { job } => service.cancel(job).map(Response::Status).map_err(classify),
        Request::Resume { job } => service.resume(job).map(Response::Status).map_err(classify),
        Request::List => Ok(Response::List { jobs: service.list() }),
        Request::Shutdown { drain } => {
            if drain {
                // Stop admitting, finish/checkpoint in-flight tiles,
                // run the pool idle — only then acknowledge, so the
                // client's ack means the durable state is complete.
                service.begin_drain();
            }
            Ok(Response::ShuttingDown)
        }
        Request::ShardDispatch { coord, origin, gen, spec, gds, ranges } => service
            .shard_dispatch(coord, origin, gen, spec, gds, ranges)
            .map(|grant| Response::ShardDispatched { grant })
            .map_err(classify),
        Request::ShardAttach { coord, origin, gen } => service
            .shard_attach(coord, origin, gen)
            .map(|grant| Response::ShardDispatched { grant })
            .map_err(classify),
        Request::ShardPull { job, since } => service
            .shard_outcomes(job, since)
            .map(|(outcomes, next, settled, draining)| Response::ShardOutcomes {
                outcomes,
                next,
                settled,
                draining,
            })
            .map_err(classify),
        Request::ShardHeartbeat { job } => service
            .shard_heartbeat(job)
            .map(|(settled, draining)| Response::ShardAlive { settled, draining })
            .map_err(classify),
    };
    result.unwrap_or_else(|error| Response::Error { error })
}

/// Wraps a service diagnostic in the error code it implies. The only
/// string shape the service guarantees is the unknown-id prefix; all
/// other diagnostics keep the catch-all code.
fn classify(message: String) -> ErrorObj {
    let code = if message.starts_with("no such job") { "not_found" } else { "error" };
    ErrorObj { code: code.to_string(), message, retry_after_vms: None }
}

fn write_response(
    writer: &mut TcpStream,
    plane: Option<&Arc<FaultPlane>>,
    conn: u64,
    frame: u64,
    response: &Response,
    version: u64,
) -> std::io::Result<()> {
    debug_assert!((1..=PROTO_VERSION).contains(&version));
    let mut line = response.to_json_for(version).render();
    line.push('\n');
    if let Some(plane) = plane {
        if plane.should_drop(SITE_SERVER_WRITE, conn, frame) {
            // Tear the frame mid-line: ship half the bytes, then slam
            // the socket shut in both directions. The client observes
            // an interrupted frame; this connection is done.
            let half = &line.as_bytes()[..line.len() / 2];
            let _ = writer.write_all(half);
            let _ = writer.flush();
            let _ = writer.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected socket drop",
            ));
        }
    }
    writer.write_all(line.as_bytes())?;
    writer.flush()
}
