//! End-to-end over a real loopback socket: submit → events → results,
//! cancel/resume, and a full service restart from the checkpoint
//! directory — all byte-compared against the flat single-shot run.

use dfm_layout::{gds, generate, layers, Technology};
use dfm_signoff::service::JobState;
use dfm_signoff::{flat_report, Client, JobSpec, Server, ServiceConfig, SignoffService};
use std::sync::Arc;
use std::time::Duration;

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
        name: "e2e".to_string(),
        tile: 1700,
        halo: 64,
        litho_layer: Some(layers::METAL1),
        ..JobSpec::default()
    }
}

fn flat_text(spec: &JobSpec, gds_bytes: &[u8]) -> String {
    let lib = gds::from_bytes(gds_bytes).expect("lib");
    flat_report(spec, &lib).expect("flat").render_text(spec)
}

fn start_server(service: SignoffService) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(Arc::new(service), 0).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

#[test]
fn wire_round_trip_matches_the_flat_report() {
    let gds_bytes = small_gds(41);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);

    let (addr, handle) = start_server(SignoffService::with_config(
        ServiceConfig::builder().threads(4).build(),
    ));
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    client.ping().expect("ping");

    let job = client.submit(spec.clone(), gds_bytes).expect("submit");
    let status = client.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    // The event stream is complete and gapless when polled in deltas.
    let mut seqs = Vec::new();
    let mut cursor = 0;
    loop {
        let (events, next) = client.events(job, cursor).expect("events");
        seqs.extend(events.iter().map(|e| e.seq));
        if events.is_empty() {
            break;
        }
        cursor = next;
    }
    let expect: Vec<u64> = (0..status.next_seq).collect();
    assert_eq!(seqs, expect, "gapless event stream over the wire");

    let (_, report_text) = client.results(job, false).expect("results");
    assert_eq!(report_text, flat, "wire report must be bit-identical to the flat run");

    let jobs = client.list().expect("list");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].id, job);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn cancel_then_resume_over_the_wire_is_byte_identical() {
    let gds_bytes = small_gds(42);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);

    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(2).tile_delay(Duration::from_millis(25)).build(),
    );
    let (addr, handle) = start_server(service);
    let mut client = Client::connect(&addr.to_string()).expect("connect");

    let job = client.submit(spec, gds_bytes).expect("submit");
    let status = client.cancel(job).expect("cancel");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(client.results(job, false).is_err(), "no final report while cancelled");

    client.resume(job).expect("resume");
    let status = client.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, report_text) = client.results(job, false).expect("results");
    assert_eq!(report_text, flat);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn service_restart_resumes_from_checkpoints_to_identical_bytes() {
    let gds_bytes = small_gds(43);
    let spec = spec();
    let flat = flat_text(&spec, &gds_bytes);
    let root = std::env::temp_dir().join(format!("dfms-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // First life: slow tiles, stopped after at least one checkpoint.
    let job = {
        let service =
            SignoffService::with_config(
                ServiceConfig::builder()
                    .threads(2)
                    .ckpt_root(root.clone())
                    .tile_delay(Duration::from_millis(10))
                    .build(),
            );
        let job = service.submit(spec.clone(), gds_bytes).expect("submit");
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let status = service.status(job).expect("status");
            if status.tiles_done >= 1 || status.state.is_terminal() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no tile completed in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        service.cancel(job).ok(); // stop scheduling; drop drains the pool
        job
    };
    let ckpt_files = std::fs::read_dir(root.join(format!("job-{job}")))
        .expect("job dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("tile-"))
        .count();
    assert!(ckpt_files >= 1, "at least one tile checkpointed before the stop");

    // Second life: a fresh process loads the job from disk as Partial
    // and resume() recomputes exactly the missing tiles.
    let service = SignoffService::with_config(
        ServiceConfig::builder().threads(4).ckpt_root(root.clone()).build(),
    );
    let status = service.status(job).expect("persisted job is visible");
    assert_eq!(status.state, JobState::Partial);
    service.resume(job).expect("resume");
    let status = service.wait(job).expect("wait");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let (_, text) = service.report_text(job, false).expect("report");
    assert_eq!(text, flat, "resumed report must be bit-identical to the flat run");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn v1_clients_still_work_and_v2_rejections_are_structured() {
    use dfm_signoff::{RequestError, SchedConfig};
    use std::io::{BufRead, BufReader, Write};

    let gds_bytes = small_gds(41);
    let sched = SchedConfig::parse("tenant acme weight 2 max_jobs 1\ntenant beta weight 1\n")
        .expect("plan");
    let service = SignoffService::with_config(
        ServiceConfig::builder()
            .threads(2)
            .sched(sched)
            .tile_delay(Duration::from_millis(20))
            .build(),
    );
    let (addr, handle) = start_server(service);

    // A v1 peer: hand-rolled unversioned frames on a raw socket. The
    // submit must succeed and every answer must be v1-shaped (no "v").
    let stream = std::net::TcpStream::connect(addr).expect("connect v1");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let spec_v1 = JobSpec { tenant: "acme".to_string(), ..spec() };
    let mut line =
        dfm_signoff::proto::Request::Submit { spec: spec_v1, gds: gds_bytes.clone(), idem: None }
        .body_json()
        .render();
    assert!(!line.contains("\"v\""), "body_json is the v1 frame shape");
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains("\"ok\":true"), "v1 submit accepted: {reply:?}");
    assert!(!reply.contains("\"v\""), "v1 peers get v1-shaped answers: {reply:?}");

    // While acme's job is active, a second acme submission over a v2
    // client is refused with the typed code and a retry hint…
    let mut client = Client::builder()
        .timeout(Duration::from_secs(30))
        .tenant("acme")
        .connect(&addr.to_string())
        .expect("connect v2");
    let first = client.list().expect("list")[0].id;
    match client.try_submit(spec(), gds_bytes.clone()) {
        Err(RequestError::Server(err)) => {
            assert_eq!(err.code, "quota_exceeded");
            assert!(err.retry_after_vms.is_some(), "backpressure carries a hint: {err:?}");
        }
        other => panic!("expected structured rejection, got {other:?}"),
    }
    // …and an unknown tenant gets its own code (no retry hint helps).
    let ghost = JobSpec { tenant: "ghost".to_string(), ..spec() };
    match client.try_submit(ghost, gds_bytes.clone()) {
        Err(RequestError::Server(err)) => assert_eq!(err.code, "unknown_tenant"),
        other => panic!("expected unknown_tenant, got {other:?}"),
    }
    // beta is under no quota; the builder's default tenant applies.
    let mut beta = Client::builder().tenant("beta").connect(&addr.to_string()).expect("beta");
    let beta_job = beta.submit(spec(), gds_bytes).expect("beta submit");
    let status = beta.wait(beta_job).expect("wait beta");
    assert_eq!(status.tenant, "beta", "tenant travels the wire");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    // Once acme's first job settles, the quota frees up again.
    let status = client.wait(first).expect("wait acme");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn hostile_bytes_on_the_socket_never_kill_the_server() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_server(SignoffService::with_config(
        ServiceConfig::builder().threads(1).build(),
    ));

    // A parade of malformed frames on one connection: every one must
    // come back as an {"ok":false,...} error, never a hangup.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for frame in [
        "\n",
        "{\n",
        "nonsense\n",
        "[1,2,3]\n",
        "{\"cmd\":\"warp\"}\n",
        "{\"cmd\":\"submit\",\"spec\":{\"tile\":-4},\"gds_hex\":\"00\"}\n",
        "{\"cmd\":\"submit\",\"spec\":{},\"gds_hex\":\"0g\"}\n",
        "{\"cmd\":\"results\",\"job\":999}\n",
    ] {
        writer.write_all(frame.as_bytes()).expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert!(reply.contains("\"ok\":false"), "frame {frame:?} got {reply:?}");
    }
    drop(writer);
    drop(reader);

    // And raw binary garbage on a second connection: the server may
    // close that connection, but must keep serving a third one.
    let mut garbage = std::net::TcpStream::connect(addr).expect("connect 2");
    garbage.write_all(&[0u8, 159, 146, 150, 255, 254, 0, 7, b'\n']).expect("send garbage");
    drop(garbage);

    let mut client = Client::connect(&addr.to_string()).expect("connect 3");
    client.ping().expect("server still alive");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}
