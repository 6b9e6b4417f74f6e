//! Protocol fault battery: hostile bytes against a live server.
//!
//! SplitMix64-driven torn frames, oversized length prefixes, version
//! skew, non-UTF-8 payloads, mid-frame disconnects and random garbage
//! — under all of it the server must answer with a typed terminal
//! `err` frame or close cleanly, never panic, and the engine behind
//! it must stay byte-identical to one that never saw the storm.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use jcf_fmcad::cad_net::{
    read_frame, write_frame, Client, Request, Response, Server, ServerConfig, WireError, MAX_FRAME,
};
use jcf_fmcad::hybrid::{Engine, Op, Service};
use test_support::SplitMix64;

const ADMIN: &str = "framework-admin";

/// A tight-timeout server so fault cases resolve quickly.
fn serve(service: Service) -> Server {
    let config = ServerConfig {
        handshake_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config, service).expect("bind")
}

fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// Reads one frame and insists it is a typed terminal `err`; a clean
/// or torn close is also acceptable (the peer may be gone before the
/// error frame drains).
fn expect_err_or_close(stream: &mut TcpStream, context: &str) {
    match read_frame(stream, MAX_FRAME) {
        Ok(payload) => match Response::parse(&payload) {
            Ok(Response::Err { code, .. }) => {
                assert!(
                    [
                        "proto",
                        "version",
                        "auth",
                        "oversized",
                        "timeout",
                        "capacity",
                        "internal"
                    ]
                    .contains(&code.as_str()),
                    "{context}: unknown terminal code {code:?}"
                );
            }
            Ok(other) => panic!("{context}: expected err frame, got {other:?}"),
            Err(e) => panic!("{context}: server sent unparseable frame: {e}"),
        },
        Err(WireError::Closed) | Err(WireError::Torn { .. }) | Err(WireError::Io(_)) => {}
        Err(e) => panic!("{context}: unexpected read failure: {e}"),
    }
}

/// After whatever storm ran, the server must still complete a healthy
/// handshake and commit an op.
fn assert_still_serving(server: &Server, tag: &str) {
    let mut client = Client::connect(server.local_addr(), ADMIN).expect("healthy handshake");
    client.ping().expect("healthy ping");
    client
        .submit_ok(&Op::CreateProject {
            name: format!("post-storm-{tag}"),
        })
        .expect("healthy commit");
}

/// Fingerprint comparison against a twin control engine that never
/// saw the storm — computed once per instance, because the walk
/// itself charges the engine's cost meter.
fn assert_untouched(stormed: &Service, control: &Service, context: &str) {
    let stormed_fp = stormed.with_engine(|e| e.state_fingerprint().unwrap());
    let control_fp = control.with_engine(|e| e.state_fingerprint().unwrap());
    assert_eq!(
        stormed_fp, control_fp,
        "{context}: hostile bytes must not perturb the engine"
    );
}

#[test]
fn torn_frames_and_mid_frame_disconnects_never_panic_the_server() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    let mut rng = SplitMix64::new(0xbad_f00d);
    for round in 0..24 {
        let mut stream = raw_connect(&server);
        // A valid hello, so some rounds get past the handshake...
        if rng.chance(1, 2) {
            write_frame(
                &mut stream,
                "hello|version=1|user=6672616d65776f726b2d61646d696e",
            )
            .expect("hello");
            let _ = read_frame(&mut stream, MAX_FRAME).expect("welcome");
        }
        // ...then a frame that dies mid-payload.
        let announced = 16 + rng.below(512);
        let sent = rng.below(announced);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(announced as u32).to_be_bytes());
        bytes.extend((0..sent).map(|_| (rng.next_u64() & 0xff) as u8));
        stream.write_all(&bytes).expect("partial frame");
        drop(stream); // mid-frame disconnect
        let _ = round;
    }

    // Torn header bytes too: fewer than 4 length bytes then close.
    for n in 0..4 {
        let mut stream = raw_connect(&server);
        stream.write_all(&vec![0x01; n]).expect("torn header");
        drop(stream);
    }

    // The engine never saw a valid op: fingerprint must be untouched,
    // and no connection thread may have panicked.
    wait_for_drain(&server);
    assert_untouched(&service, &control, "torn frames");
    assert_eq!(server.stats().panics, 0);
    assert_still_serving(&server, "torn");
    server.shutdown();
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    for len in [MAX_FRAME as u32 + 1, u32::MAX / 2, u32::MAX] {
        let mut stream = raw_connect(&server);
        stream
            .write_all(&len.to_be_bytes())
            .expect("hostile length");
        // The server must answer (or close) without ever reading the
        // announced payload — which we never send.
        expect_err_or_close(&mut stream, &format!("oversized len {len}"));
    }

    wait_for_drain(&server);
    assert_untouched(&service, &control, "oversized prefixes");
    assert_eq!(server.stats().panics, 0);
    assert_still_serving(&server, "oversized");
    server.shutdown();
}

#[test]
fn version_skew_bad_users_and_malformed_hellos_get_typed_rejections() {
    let service = Service::new(Engine::builder().build());
    let mut server = serve(service);

    let cases: &[&str] = &[
        "hello|version=2|user=6672616d65776f726b2d61646d696e", // future version
        "hello|version=0|user=6672616d65776f726b2d61646d696e", // ancient version
        "hello|version=1|user=6e6f626f6479",                   // unknown user
        "hello|version=1|user=zz",                             // bad hex
        "hello|version=banana|user=61",                        // bad number
        "hello|version=1",                                     // missing field
        "op|id=1|op=6164642d75736572",                         // op before hello
        "ping|id=1",                                           // ping before hello
        "definitely-not-a-message",
        "",
        "|||",
        "=|=",
    ];
    for payload in cases {
        let mut stream = raw_connect(&server);
        write_frame(&mut stream, payload).expect("send");
        expect_err_or_close(&mut stream, &format!("hello case {payload:?}"));
    }

    // Non-UTF-8 payload bytes in an otherwise well-framed message.
    let mut stream = raw_connect(&server);
    let garbage = [0xffu8, 0xfe, 0x80, 0x81, 0x00];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
    frame.extend_from_slice(&garbage);
    stream.write_all(&frame).expect("send");
    expect_err_or_close(&mut stream, "non-utf8 payload");

    wait_for_drain(&server);
    assert_eq!(server.stats().panics, 0);
    assert!(server.stats().protocol_errors > 0);
    assert_still_serving(&server, "hello");
    server.shutdown();
}

#[test]
fn random_garbage_after_a_valid_handshake_is_contained() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    // Seed the engine (and its control twin) with one real op so the
    // storm runs against non-trivial state.
    {
        let seed_op = Op::CreateProject {
            name: "pre-storm".into(),
        };
        let mut client = Client::connect(server.local_addr(), ADMIN).expect("connect");
        client.submit_ok(&seed_op).expect("seed commit");
        control.submit(seed_op).expect("control seed commit");
    }

    let mut rng = SplitMix64::new(0x5eed);
    for _ in 0..24 {
        let mut stream = raw_connect(&server);
        write_frame(
            &mut stream,
            "hello|version=1|user=6672616d65776f726b2d61646d696e",
        )
        .expect("hello");
        let _ = read_frame(&mut stream, MAX_FRAME).expect("welcome");
        // Well-framed random garbage payloads: parse errors, not
        // transport errors, so each must produce a typed terminal err.
        let len = 1 + rng.below(64);
        let payload: String = (0..len)
            .map(|_| {
                // Printable-ish ASCII with separators over-represented.
                let c = (0x20 + (rng.next_u64() % 0x5f) as u8) as char;
                if rng.chance(1, 4) {
                    ['|', '=', ';', ':', ','][rng.below(5)]
                } else {
                    c
                }
            })
            .collect();
        write_frame(&mut stream, &payload).expect("garbage");
        expect_err_or_close(&mut stream, &format!("garbage {payload:?}"));
    }

    // Double hello: a second handshake on a live session is a
    // protocol error.
    let mut stream = raw_connect(&server);
    write_frame(
        &mut stream,
        "hello|version=1|user=6672616d65776f726b2d61646d696e",
    )
    .expect("hello");
    let _ = read_frame(&mut stream, MAX_FRAME).expect("welcome");
    write_frame(
        &mut stream,
        "hello|version=1|user=6672616d65776f726b2d61646d696e",
    )
    .expect("second hello");
    expect_err_or_close(&mut stream, "double hello");

    wait_for_drain(&server);
    assert_untouched(&service, &control, "post-handshake garbage");
    assert_eq!(server.stats().panics, 0);
    assert_still_serving(&server, "garbage");
    server.shutdown();
}

#[test]
fn an_op_with_a_malformed_embedded_line_is_a_protocol_error_not_a_crash() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    // Hex-armoured garbage in the op field: armour decodes, the op
    // line inside does not parse.
    let bad_ops = [
        "op|id=1|op=zz",                   // broken armour
        "op|id=1|op=6e6f2d737563682d6f70", // "no-such-op"
        "op|id=1|op=",                     // empty armour
        "op|id=1",                         // missing op field
        "op|op=61",                        // missing id
        "op|id=banana|op=61",              // bad id
    ];
    for payload in bad_ops {
        let mut stream = raw_connect(&server);
        write_frame(
            &mut stream,
            "hello|version=1|user=6672616d65776f726b2d61646d696e",
        )
        .expect("hello");
        let _ = read_frame(&mut stream, MAX_FRAME).expect("welcome");
        write_frame(&mut stream, payload).expect("bad op");
        expect_err_or_close(&mut stream, payload);
    }

    wait_for_drain(&server);
    assert_untouched(&service, &control, "malformed embedded ops");
    assert_eq!(server.stats().panics, 0);
    assert_still_serving(&server, "bad-op");
    server.shutdown();
}

/// Hex armour is strict: a pair written `+x` is not the byte `0x`.
/// Op lines hold printable text only (every op field is declared and
/// an extra one is refused), so the control-byte pair this needs rides
/// in a hello's free-text user name. Unaltered, the name
/// `framework-admin<tab>` is merely unknown (`auth`); with its `09`
/// pair spelled `+9` the frame itself is malformed (`proto`). A reader
/// that took the sign for a zero would answer `auth` to both.
#[test]
fn a_hello_armour_with_a_sign_in_place_of_a_zero_digit_is_refused() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    let armour: String = format!("{ADMIN}\t")
        .bytes()
        .map(|b| format!("{b:02x}"))
        .collect();
    let signed = format!("{}+9", armour.strip_suffix("09").expect("tab pair last"));
    for (user, expected) in [(armour, "auth"), (signed, "proto")] {
        let mut stream = raw_connect(&server);
        write_frame(&mut stream, &format!("hello|version=1|user={user}")).expect("hello");
        let payload = read_frame(&mut stream, MAX_FRAME).expect("a reply");
        match Response::parse(&payload).expect("parseable reply") {
            Response::Err { code, .. } => assert_eq!(code, expected, "user armour {user}"),
            other => panic!("expected err|code={expected}, got {other:?}"),
        }
    }

    wait_for_drain(&server);
    assert_untouched(&service, &control, "signed armour");
    assert_eq!(server.stats().panics, 0);
    server.shutdown();
}

#[test]
fn pipelined_ops_before_a_malformed_frame_are_answered_in_order_then_one_err() {
    let service = Service::new(Engine::builder().build());
    let control = Service::new(Engine::builder().build());
    let mut server = serve(service.clone());

    const N: u64 = 16;
    let ops: Vec<Op> = (0..N)
        .map(|i| Op::CreateProject {
            name: format!("piped-{i}"),
        })
        .collect();
    for op in &ops {
        control.submit(op.clone()).expect("control commit");
    }

    // Everything goes out before a single reply is read: N valid ops,
    // then one well-framed payload that does not parse.
    let mut stream = raw_connect(&server);
    write_frame(
        &mut stream,
        "hello|version=1|user=6672616d65776f726b2d61646d696e",
    )
    .expect("hello");
    let _ = read_frame(&mut stream, MAX_FRAME).expect("welcome");
    for (i, op) in ops.iter().enumerate() {
        let req = Request::Op {
            id: i as u64 + 1,
            op: op.clone(),
        };
        write_frame(&mut stream, &req.encode()).expect("pipelined op");
    }
    write_frame(&mut stream, "no|such=request").expect("garbage");

    for want in 1..=N {
        let payload = read_frame(&mut stream, MAX_FRAME).expect("in-order reply");
        match Response::parse(&payload).expect("parseable reply") {
            Response::Ok { id, .. } => assert_eq!(id, want, "replies must stay in order"),
            other => panic!("reply {want}: expected ok, got {other:?}"),
        }
    }
    let payload = read_frame(&mut stream, MAX_FRAME).expect("terminal err");
    match Response::parse(&payload).expect("parseable err") {
        Response::Err { code, .. } => assert_eq!(code, "proto"),
        other => panic!("expected err|code=proto, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut stream, MAX_FRAME), Err(WireError::Closed)),
        "the connection closes after the terminal err"
    );

    wait_for_drain(&server);
    assert_untouched(&service, &control, "pipelined ops then garbage");
    assert_eq!(server.stats().protocol_errors, 1);
    assert_eq!(server.stats().panics, 0);
    server.shutdown();
}

#[test]
fn slamming_the_door_during_every_phase_leaves_no_debris() {
    let service = Service::new(Engine::builder().build());
    let mut server = serve(service);

    // Disconnect at every interesting moment of a session's life.
    // Phase 0: connect, say nothing, vanish.
    drop(raw_connect(&server));
    // Phase 1: half a length header.
    let mut s = raw_connect(&server);
    s.write_all(&[0, 0]).expect("half header");
    drop(s);
    // Phase 2: full hello announced, half sent.
    let mut s = raw_connect(&server);
    let hello = "hello|version=1|user=6672616d65776f726b2d61646d696e";
    s.write_all(&(hello.len() as u32).to_be_bytes())
        .expect("header");
    s.write_all(&hello.as_bytes()[..hello.len() / 2])
        .expect("half hello");
    drop(s);
    // Phase 3: full handshake, vanish without bye.
    let mut s = raw_connect(&server);
    write_frame(&mut s, hello).expect("hello");
    let _ = read_frame(&mut s, MAX_FRAME).expect("welcome");
    drop(s);
    // Phase 4: op announced, half sent, vanish.
    let mut s = raw_connect(&server);
    write_frame(&mut s, hello).expect("hello");
    let _ = read_frame(&mut s, MAX_FRAME).expect("welcome");
    let op_frame = "op|id=1|op=6164642d75736572";
    s.write_all(&(op_frame.len() as u32).to_be_bytes())
        .expect("header");
    s.write_all(&op_frame.as_bytes()[..5]).expect("half op");
    drop(s);

    wait_for_drain(&server);
    assert_eq!(server.stats().panics, 0);
    assert_still_serving(&server, "door-slam");
    server.shutdown();
}

/// Waits until the server has no active connections (all fault
/// threads unwound), bounded by a deadline.
fn wait_for_drain(server: &Server) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().active > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "connections failed to drain: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
