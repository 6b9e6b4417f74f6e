//! Standalone wire-protocol server for the hybrid framework.
//!
//! Serves a fresh engine over TCP using the `cad-net` protocol.
//! Usage:
//!
//! ```text
//! net-server [--addr HOST:PORT] [--shards N] [--max-conns N]
//!            [--busy-threshold N]
//! ```
//!
//! With `--shards 0` (the default) a single-engine
//! [`hybrid::Service`] backs the server; with `--shards N` (N >= 1) a
//! partitioned [`hybrid::ShardedService`] does. Connect with
//! [`cad_net::Client`] as user `framework-admin` to administer the
//! desktop (add users, projects, flows), then as any registered user
//! to act as them.
//!
//! Each connection is served by one thread that answers its requests
//! in order; a client may pipeline, and TCP flow control holds it
//! back while the server works. Ops are answered `busy` without being
//! executed once `--busy-threshold` ops wait for the write path.

use std::process::ExitCode;

use cad_net::{Server, ServerConfig};
use jcf_fmcad::hybrid::{Engine, Service, ShardedServiceBuilder};

struct Args {
    addr: String,
    shards: usize,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7815".into(),
        shards: 0,
        config: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards needs a number".to_owned())?;
            }
            "--max-conns" => {
                args.config.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns needs a number".to_owned())?;
            }
            "--busy-threshold" => {
                args.config.busy_threshold = value("--busy-threshold")?
                    .parse()
                    .map_err(|_| "--busy-threshold needs a number".to_owned())?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: net-server [--addr HOST:PORT] [--shards N] [--max-conns N] \
                     [--busy-threshold N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("net-server: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let bound = if args.shards == 0 {
        Server::bind(
            &args.addr,
            args.config.clone(),
            Service::new(Engine::builder().build()),
        )
    } else {
        Server::bind(
            &args.addr,
            args.config.clone(),
            ShardedServiceBuilder::new().shards(args.shards).build(),
        )
    };
    let server = match bound {
        Ok(server) => server,
        Err(e) => {
            eprintln!("net-server: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let backend = if args.shards == 0 {
        "service".to_owned()
    } else {
        format!("sharded x{}", args.shards)
    };
    println!(
        "net-server: listening on {} ({backend}, max-conns {}, busy at {})",
        server.local_addr(),
        args.config.max_conns,
        args.config.busy_threshold,
    );
    // Serve until killed; the acceptor thread owns the listener and
    // the `Server` drop (never reached) would stop it.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
