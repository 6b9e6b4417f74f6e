//! Backpressure battery: saturation, slow readers and flooders get
//! *bounded* typed behaviour while healthy sessions keep committing.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use jcf_fmcad::cad_net::{Client, Outcome, Server, ServerConfig};
use jcf_fmcad::cad_vfs::Blob;
use jcf_fmcad::hybrid::{Engine, Event, Op, Service};

const ADMIN: &str = "framework-admin";

fn connect(server: &Server, user: &str) -> Client {
    Client::connect(server.local_addr(), user).expect("connect and handshake")
}

/// Holding the engine lock while writers pile up must trip the `busy`
/// threshold: ops past it get a typed `busy` answer *without being
/// executed*, pings stay live, and once the engine frees up both the
/// parked writers and a retry of the rejected op commit.
#[test]
fn saturated_write_path_answers_busy_without_executing() {
    let service = Service::new(Engine::builder().build());
    let config = ServerConfig {
        busy_threshold: 4,
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config, service.clone()).expect("bind");

    // Park the engine: the closure holds the engine lock until told
    // to release, so submitted ops pile up in the pending queue.
    let (ready_tx, ready_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let parked = {
        let service = service.clone();
        std::thread::spawn(move || {
            service.with_engine(|_| {
                ready_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        })
    };
    ready_rx.recv().unwrap();

    // Eight in-process writers block behind the held engine (the
    // direct path has no busy gate, so the queue reliably reaches 8).
    let writers: Vec<_> = (0..8)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                service.submit(Op::CreateProject {
                    name: format!("parked-{i}"),
                })
            })
        })
        .collect();

    // Wait until all eight ops are visibly queued.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.queue_depth() < 8 {
        assert!(
            Instant::now() < deadline,
            "writers never queued: depth {}",
            service.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A ninth op must be answered `busy` — typed, immediate, not
    // executed — and a ping on the same saturated server stays live.
    let mut probe = connect(&server, ADMIN);
    let outcome = probe
        .submit(&Op::CreateProject {
            name: "rejected-for-now".into(),
        })
        .expect("typed reply despite saturation");
    let depth = match outcome {
        Outcome::Busy { depth } => depth,
        other => panic!("expected busy, got {other:?}"),
    };
    assert!(depth >= 4, "busy must report the observed depth");
    probe.ping().expect("ping stays live under saturation");

    // Release the engine: every parked writer commits.
    release_tx.send(()).unwrap();
    parked.join().unwrap();
    for writer in writers {
        writer.join().unwrap().expect("parked writer should commit");
    }

    // The rejected op was never executed — retrying it now succeeds
    // (no duplicate-name error) and the engine drained.
    match probe
        .submit(&Op::CreateProject {
            name: "rejected-for-now".into(),
        })
        .expect("typed reply")
    {
        Outcome::Committed { .. } => {}
        other => panic!("retry after busy should commit, got {other:?}"),
    }
    assert_eq!(service.queue_depth(), 0);

    let stats = server.stats();
    assert!(stats.busy >= 1, "busy answers must be counted");
    assert_eq!(stats.panics, 0);
    server.shutdown();
}

/// A client that stops draining large responses is disconnected by
/// the write timeout instead of wedging an executor forever — and a
/// healthy session on the same server keeps committing throughout.
#[test]
fn slow_readers_are_dropped_by_the_write_timeout() {
    let service = Service::new(Engine::builder().build());
    let config = ServerConfig {
        write_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config, service).expect("bind");

    // Desktop setup over the wire: alice owns a design object version
    // with a payload large enough that a handful of browse responses
    // overflow any socket buffer.
    let mut admin = connect(&server, ADMIN);
    let admin_user = admin.user();
    let alice = match admin
        .submit_ok(&Op::AddUser {
            name: "alice".into(),
            manager: false,
        })
        .unwrap()
    {
        (_, Event::UserAdded(id)) => id,
        (_, other) => panic!("expected user-added, got {other:?}"),
    };
    let team = match admin
        .submit_ok(&Op::AddTeam {
            actor: admin_user,
            name: "asic".into(),
        })
        .unwrap()
    {
        (_, Event::TeamAdded(id)) => id,
        (_, other) => panic!("expected team-added, got {other:?}"),
    };
    admin
        .submit_ok(&Op::AddTeamMember {
            actor: admin_user,
            team,
            user: alice,
        })
        .unwrap();
    let flow = match admin
        .submit_ok(&Op::DefineStandardFlow {
            name: "flow".into(),
        })
        .unwrap()
    {
        (_, Event::StandardFlowDefined(flow)) => flow,
        (_, other) => panic!("expected standard-flow-defined, got {other:?}"),
    };
    let project = match admin
        .submit_ok(&Op::CreateProject {
            name: "alu16".into(),
        })
        .unwrap()
    {
        (_, Event::ProjectCreated(id)) => id,
        (_, other) => panic!("expected project-created, got {other:?}"),
    };
    let cell = match admin
        .submit_ok(&Op::CreateCell {
            project,
            name: "adder".into(),
        })
        .unwrap()
    {
        (_, Event::CellCreated(id)) => id,
        (_, other) => panic!("expected cell-created, got {other:?}"),
    };
    let (cv, variant) = match admin
        .submit_ok(&Op::CreateCellVersion {
            cell,
            flow: flow.flow,
            team,
        })
        .unwrap()
    {
        (_, Event::CellVersionCreated(cv, v)) => (cv, v),
        (_, other) => panic!("expected cell-version-created, got {other:?}"),
    };

    let mut alice_client = connect(&server, "alice");
    alice_client
        .submit_ok(&Op::Reserve { user: alice, cv })
        .unwrap();
    let payload: Blob = vec![0xabu8; 512 * 1024].into();
    let dovs = match alice_client
        .submit_ok(&Op::RunActivity {
            user: alice,
            variant,
            activity: flow.enter_schematic,
            override_pending: false,
            outputs: vec![("schematic".into(), payload)],
            session_error: None,
        })
        .unwrap()
    {
        (_, Event::ActivityRun { dovs }) => dovs,
        (_, other) => panic!("expected activity-run, got {other:?}"),
    };
    let dov = dovs[0];

    // The slow reader pipelines browses (each reply ~1 MiB of hex)
    // and never reads a byte back.
    let browse = Op::Browse { user: alice, dov };
    for _ in 0..32 {
        if alice_client.send_op(&browse).is_err() {
            // The server already dropped us mid-flood; also fine.
            break;
        }
    }

    // While the slow reader wedges, a healthy session keeps working.
    let healthy_deadline = Instant::now() + Duration::from_secs(15);
    let mut dropped = false;
    let mut healthy_commits = 0;
    while Instant::now() < healthy_deadline {
        admin
            .submit_ok(&Op::CreateProject {
                name: format!("healthy-{healthy_commits}"),
            })
            .expect("healthy session must keep committing");
        healthy_commits += 1;
        if server.stats().timeouts >= 1 {
            dropped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        dropped,
        "slow reader was never dropped; stats: {:?}",
        server.stats()
    );
    assert!(healthy_commits >= 1);
    assert_eq!(server.stats().panics, 0);
    server.shutdown();
}

/// A flooder pipelining far past the one request the server reads
/// ahead only slows *itself*: replies come back complete and in order,
/// and concurrent healthy sessions see their own writes immediately.
#[test]
fn a_pipelining_flooder_is_window_bounded_and_healthy_sessions_read_their_writes() {
    let service = Service::new(Engine::builder().build());
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default(), service).expect("bind");

    const FLOOD: u64 = 400;
    let flooder = {
        let addr = server.local_addr();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr, ADMIN).expect("connect");
            // Cheap failing ops (unknown project id): the server must
            // execute and answer every one, in order, despite the
            // flood being far deeper than the server reads ahead.
            let op = Op::CreateCell {
                project: jcf_fmcad::jcf::ProjectId::from_raw(u64::MAX),
                name: "flood".into(),
            };
            let mut ids = Vec::new();
            for _ in 0..FLOOD {
                ids.push(client.send_op(&op).expect("send"));
            }
            for want in ids {
                let reply = client.recv_reply().expect("reply");
                assert_eq!(reply.id, want, "flood replies must stay in order");
                assert!(matches!(reply.outcome, Outcome::Failed { .. }));
            }
            client.bye().expect("clean goodbye after flood");
        })
    };

    // Meanwhile: a healthy session interleaves writes and must see
    // each one immediately (read-your-writes across the wire).
    let mut healthy = connect(&server, ADMIN);
    for i in 0..20 {
        let project = match healthy
            .submit_ok(&Op::CreateProject {
                name: format!("rw-{i}"),
            })
            .expect("healthy create project")
        {
            (_, Event::ProjectCreated(id)) => id,
            (_, other) => panic!("expected project-created, got {other:?}"),
        };
        // The id from the event is immediately usable by the same
        // session: the write is visible to its own follow-up op.
        match healthy
            .submit_ok(&Op::CreateCell {
                project,
                name: format!("cell-{i}"),
            })
            .expect("healthy create cell")
        {
            (_, Event::CellCreated(_)) => {}
            (_, other) => panic!("expected cell-created, got {other:?}"),
        }
    }

    flooder.join().expect("flooder thread");
    let stats = server.stats();
    assert_eq!(stats.panics, 0);
    assert_eq!(
        stats.ops_failed, FLOOD,
        "every flooded op got a typed answer"
    );
    assert_eq!(stats.ops_ok, 40, "healthy commits all landed");
    server.shutdown();
}

/// The idle timeout bounds only the wait for the next request: a
/// session whose own op is parked behind a busy engine for longer than
/// the idle timeout gets its reply and keeps working.
#[test]
fn the_idle_timeout_does_not_fire_while_the_clients_op_is_executing() {
    let service = Service::new(Engine::builder().build());
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config, service.clone()).expect("bind");
    let mut client = connect(&server, ADMIN);

    let (ready_tx, ready_rx) = mpsc::channel();
    let parked = std::thread::spawn(move || {
        service.with_engine(|_| {
            ready_tx.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(600));
        });
    });
    ready_rx.recv().unwrap();

    // The op waits behind the parked engine for three idle timeouts.
    let id = client
        .send_op(&Op::CreateProject {
            name: "parked".into(),
        })
        .expect("send while parked");
    let reply = client
        .recv_reply()
        .expect("reply after the engine frees up");
    parked.join().unwrap();
    assert_eq!(reply.id, id);
    assert!(matches!(reply.outcome, Outcome::Committed { .. }));

    client
        .submit_ok(&Op::CreateProject {
            name: "after".into(),
        })
        .expect("the session outlives the parked op");
    assert_eq!(server.stats().timeouts, 0);
    assert_eq!(server.stats().panics, 0);
    server.shutdown();
}
