//! A fleet spanning processes: `runtime::remote` serving a
//! `Cached<FleetManager>` stack over a loopback socket, driven by a
//! `RemoteClient` that is itself just another `AdmissionService` — and the
//! fleet's server-side journal, which replays deterministically.
//!
//! Run with: `cargo run --release --example remote_fleet`

use platform::{Application, Mapping, SystemSpec};
use runtime::{
    AdmissionRequest, AdmissionService, Cached, Completion, Endpoint, FleetConfig, FleetManager,
    JournalReplayer, RemoteClient, RemoteServer, RoutingPolicy,
};
use sdf::figure2_graphs;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (a, b) = figure2_graphs();
    let spec = SystemSpec::builder()
        .application(Application::new("video", a)?)
        .application(Application::new("audio", b)?)
        .mapping(Mapping::by_actor_index(3))
        .build()?;

    // The served stack: estimate caching layered over a two-group fleet
    // that journals its own decisions. The server drives it as a plain
    // `Arc<dyn AdmissionService>` — the layers are invisible to the wire.
    let fleet = FleetManager::new(
        spec.clone(),
        FleetConfig::uniform(2, 1, 3, RoutingPolicy::LeastUtilised),
    )?;
    let fleet_config = FleetConfig::from_header(fleet.journal().header())?;
    let stack = Arc::new(Cached::new(fleet.clone(), 32));

    // Loopback socket: a Unix domain socket where available, TCP otherwise
    // (port 0 = the OS picks an ephemeral port).
    let addr: Endpoint = if cfg!(unix) {
        let path = std::env::temp_dir().join(format!("remote_fleet_{}.sock", std::process::id()));
        format!("unix:{}", path.display()).parse()?
    } else {
        "tcp:127.0.0.1:0".parse()?
    };
    let server = RemoteServer::bind_with(
        &addr,
        stack as Arc<dyn AdmissionService>,
        Some(fleet.clone()),
        runtime::RemoteServerConfig::default(),
    )?;
    println!("== server listening on {} ==", server.local_addr());

    // The client half runs on its own thread, as it would in another
    // process: it learns the workload spec from the handshake and drives
    // the remote fleet through the very same trait every local driver
    // uses, pipelining admissions over one connection.
    let client_addr = server.local_addr().clone();
    let client_thread = std::thread::spawn(move || -> Result<(), String> {
        let client = RemoteClient::connect(&client_addr).map_err(|e| e.to_string())?;
        let spec = client.workload().ok_or("no workload in handshake")?;
        println!(
            "client connected: {} applications, {} domains, {} frames",
            spec.application_count(),
            client.domains(),
            client.wire_mode(),
        );

        // Pipeline a burst of admissions without waiting in between.
        let burst: Vec<Completion> = (0..6)
            .map(|i| client.submit(AdmissionRequest::new(i)))
            .collect();
        let mut residents = Vec::new();
        for completion in burst {
            let decision = completion.wait().map_err(|e| e.to_string())?;
            println!("  {decision}");
            residents.extend(decision.resident());
        }
        for resident in residents {
            client.release(resident).map_err(|e| e.to_string())?;
        }

        // The server-side journal, fetched over the wire: checksummed,
        // parsed and verified on this side of the socket.
        let journal = client.fetch_journal().map_err(|e| e.to_string())?;
        journal.verify().map_err(|e| e.to_string())?;
        println!(
            "fetched the server-side journal: {} verified decisions",
            journal.len()
        );
        client.close();
        Ok(())
    });
    client_thread.join().expect("client thread")?;

    // Graceful shutdown: accepts stop first, live connections drain.
    server.shutdown();

    println!("\n== deterministic replay of the wire-recorded journal ==");
    let journal = runtime::Journal::parse(&fleet.journal().render()?)?;
    let (report, _replayed) = JournalReplayer::new(&spec).replay(&journal, fleet_config)?;
    print!("{}", report.render());
    assert!(
        report.is_equivalent(),
        "a journal recorded over the wire must replay outcome-for-outcome"
    );
    Ok(())
}
