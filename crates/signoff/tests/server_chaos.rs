//! Socket-chaos suite: the TCP server under injected mid-frame drops
//! of its own response writes, plus clients that vanish mid-request.
//! Whatever the connection carnage, the server must never deadlock,
//! never stop accepting, never leak a pool task, and never emit a
//! non-monotonic or gapped event sequence.

use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::proto::{Request, Response};
use dfm_signoff::server::{MAX_CONNECTIONS, SITE_SERVER_WRITE};
use dfm_signoff::service::JobState;
use dfm_signoff::{flat_report, Client, JobSpec, Server, ServiceConfig, SignoffService};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_gds(seed: u64) -> Vec<u8> {
    let tech = Technology::n65();
    let params = generate::RoutedBlockParams {
        width: 6_000,
        height: 6_000,
        ..Default::default()
    };
    gds::to_bytes(&generate::routed_block(&tech, params, seed)).expect("gds")
}

fn spec() -> JobSpec {
    JobSpec {
        name: "chaos".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

/// Runs one request against a fresh connection, reconnecting until it
/// survives the drop chaos. Only used for idempotent reads.
fn with_retry<T>(addr: SocketAddr, mut f: impl FnMut(&mut Client) -> Result<T, String>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut client) = Client::connect(&addr.to_string()) {
            if let Ok(v) = f(&mut client) {
                return v;
            }
        }
        assert!(Instant::now() < deadline, "server unreachable through the chaos");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends one v2 ping on `stream` and returns the reply frame, or `None`
/// when the server closed the connection instead.
fn ping(stream: &TcpStream) -> Option<Response> {
    let mut writer = stream;
    let line = Request::Ping.to_json().render() + "\n";
    if writer.write_all(line.as_bytes()).is_err() {
        return None;
    }
    let mut reply = String::new();
    match BufReader::new(stream).read_line(&mut reply) {
        Ok(n) if n > 0 => Some(Response::parse(reply.trim_end()).expect("frame parses")),
        _ => None,
    }
}

/// The server serves at most `MAX_CONNECTIONS` connections at once. One
/// more gets a single v2 `busy` frame and is closed; a slot a departing
/// client frees is served again.
#[test]
fn connections_over_the_cap_get_one_busy_frame_and_close() {
    let service = Arc::new(SignoffService::with_config(ServiceConfig::builder().build()));
    let server = Server::bind(Arc::clone(&service), 0).expect("bind");
    let addr = server.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve();
    });

    // A pong on each proves the server accepted and counted it.
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            assert_eq!(ping(&stream), Some(Response::Pong));
            stream
        })
        .collect();

    let extra = TcpStream::connect(addr).expect("connect");
    // Without the cap the server would serve this one and stay silent.
    extra.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reader = BufReader::new(&extra);
    let mut frame = String::new();
    reader.read_line(&mut frame).expect("busy frame");
    match Response::parse(frame.trim_end()).expect("frame parses") {
        Response::Error { error } => assert_eq!(error.code, "busy", "{error}"),
        other => panic!("expected a busy error, got {other:?}"),
    }
    assert!(frame.contains("\"v\":2"), "{frame}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "closed after one frame");

    // Every held connection is still served.
    for stream in &held {
        assert_eq!(ping(stream), Some(Response::Pong));
    }

    // Once one client leaves, a newcomer is served again (the slot is
    // released when that connection's thread sees the EOF).
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stream = TcpStream::connect(addr).expect("connect");
        if ping(&stream) == Some(Response::Pong) {
            break;
        }
        assert!(Instant::now() < deadline, "a freed slot is never served");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One connection speaking both generations at once: every response
/// must come back in the dialect of the request it answers — v1
/// requests get bare frames with string errors, v2 requests get
/// `"v":2` frames with structured [`ErrorObj`]s, and a line that
/// parses as neither is answered in the last dialect spoken.
#[test]
fn mixed_dialect_connection_answers_each_request_in_kind() {
    let service = Arc::new(SignoffService::with_config(ServiceConfig::builder().build()));
    let server = Server::bind(Arc::clone(&service), 0).expect("bind");
    let addr = server.local_addr();
    std::thread::spawn(move || {
        let _ = server.serve();
    });

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |line: &str| -> String {
        let mut writer = &stream;
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    };

    // v1 ping: bare frame, no version field.
    assert_eq!(ask(r#"{"cmd":"ping"}"#), r#"{"ok":true,"pong":true}"#);

    // v2 ping on the same connection: the frame leads with "v":2.
    assert_eq!(ask(r#"{"v":2,"cmd":"ping"}"#), r#"{"v":2,"ok":true,"pong":true}"#);

    // v1 error shape: a bare message string, no code object.
    let reply = ask(r#"{"cmd":"status","job":999}"#);
    assert!(!reply.contains("\"v\""), "v1 error must not carry a version field: {reply}");
    assert!(reply.contains(r#""ok":false"#), "{reply}");
    assert!(reply.contains(r#""error":"no such job"#), "v1 errors are strings: {reply}");
    assert!(!reply.contains(r#""code""#), "v1 errors carry no code: {reply}");

    // The same failing request as v2: a structured ErrorObj with its
    // typed code.
    let reply = ask(r#"{"v":2,"cmd":"status","job":999}"#);
    assert!(reply.starts_with(r#"{"v":2,"#), "{reply}");
    assert!(reply.contains(r#""error":{"#), "v2 errors are objects: {reply}");
    assert!(reply.contains(r#""code":"not_found""#), "{reply}");

    // A shard frame without "v" parses as *neither* dialect; the
    // refusal rides the last dialect spoken (v2, from the line above).
    let reply = ask(r#"{"cmd":"shard.attach","coord":9,"origin":1,"gen":0}"#);
    assert!(reply.starts_with(r#"{"v":2,"#), "{reply}");
    assert!(reply.contains(r#""code":"bad_request""#), "{reply}");

    // And the connection drops straight back to v1 on the next v1
    // request — the dialect is per-request, not sticky-per-connection.
    assert_eq!(ask(r#"{"cmd":"ping"}"#), r#"{"ok":true,"pong":true}"#);

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let _ = client.shutdown();
}

#[test]
fn server_survives_injected_drops_and_vanishing_clients() {
    let gds_bytes = small_gds(41);
    let spec = spec();
    let flat = {
        let lib = gds::from_bytes(&gds_bytes).expect("lib");
        flat_report(&spec, &lib).expect("flat").render_text(&spec)
    };

    // 40% of all response writes are torn mid-frame and the socket
    // slammed shut. The drop decision is keyed by (connection, frame),
    // so chaos hits pings, status polls, event polls, and results
    // frames alike.
    let plan = FaultPlan::seeded(17)
        .with_rule(FaultRule::new(SITE_SERVER_WRITE, FaultAction::Drop).prob(0.4));
    let service = Arc::new(SignoffService::with_config(
        ServiceConfig::builder().threads(2).fault_plane(Arc::new(FaultPlane::new(plan))).build(),
    ));
    let server = Server::bind(Arc::clone(&service), 0).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    // Submit exactly once. If the response frame was dropped the job
    // still exists (drops happen after the request is handled), so
    // recover its id from the list.
    let job = match Client::connect(&addr.to_string())
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.submit(spec.clone(), gds_bytes.clone()))
    {
        Ok(job) => job,
        Err(_) => with_retry(addr, |c| {
            let jobs = c.list()?;
            jobs.first().map(|s| s.id).ok_or_else(|| "no job yet".to_string())
        }),
    };

    // Clients that vanish mid-request frame, interleaved with the run.
    for _ in 0..8 {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"{\"cmd\":\"stat");
            drop(s);
        }
    }

    // Poll the event stream in deltas through the chaos. The cursor
    // only advances on a fully-parsed response, so torn frames can
    // only cause re-reads — never skips.
    let mut seqs: Vec<u64> = Vec::new();
    let mut cursor = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (events, next) =
            with_retry(addr, |c| c.events(job, cursor));
        seqs.extend(events.iter().map(|e| e.seq));
        cursor = next;
        let status = with_retry(addr, |c| c.status(job));
        if status.state.is_settled() && events.is_empty() {
            assert_eq!(status.state, JobState::Done, "{:?}", status.error);
            break;
        }
        assert!(Instant::now() < deadline, "job did not settle under chaos");
    }
    // Gapless and strictly monotonic, even assembled over torn frames.
    let expect: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, expect, "event sequence must be gapless and monotonic");

    // The report still comes through — byte-identical to the flat run.
    let (_, report_text) = with_retry(addr, |c| c.results(job, false));
    assert_eq!(report_text, flat, "chaos on the wire must not touch the bytes");

    // More vanishing clients, then prove the server still answers.
    for _ in 0..4 {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(b"\x00\x9f\x92\x96 torn");
            drop(s);
        }
    }
    with_retry(addr, |c| c.ping());

    // Shut down. The shutdown *response* may itself be dropped, but
    // the server latches shutdown before writing, so serve() returns
    // either way — keep asking until the accept loop is gone.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(&addr.to_string()) {
            let _ = c.shutdown();
        }
        std::thread::sleep(Duration::from_millis(10));
        if Client::connect(&addr.to_string())
            .map(|mut c| c.ping().is_err())
            .unwrap_or(true)
        {
            break;
        }
        assert!(Instant::now() < deadline, "server did not shut down");
    }
    handle.join().expect("server thread");

    // No leaked pool slots: every tile task ran or was skipped, and
    // nothing is stuck queued or in flight.
    let stats = service.pool_stats();
    assert_eq!(stats.queue_depth, 0, "no tasks left queued");
    assert_eq!(stats.in_flight, 0, "no tasks stuck in flight");
    assert_eq!(stats.panicked, 0, "socket chaos must not panic tile tasks");
}
