//! Integration: full workflows over a real TCP redis-lite server — the
//! paper's actual deployment shape for the Redis mappings.

use dispel4py::prelude::*;
use dispel4py::redis_lite::client::{Client, Connection};
use dispel4py::redis_lite::server::Server;
use dispel4py::workflows::{astro, sentiment};

fn fast_cfg() -> WorkloadConfig {
    WorkloadConfig::standard().with_time_scale(0.002)
}

#[test]
fn galaxy_workflow_over_tcp_dyn_redis() {
    let server = Server::start(0).unwrap();
    let (exe, results) = astro::build(&fast_cfg());
    let mapping = DynRedis::new(RedisBackend::Tcp(server.addr()));
    let report = mapping.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(results.lock().len(), 100);
    assert_eq!(report.tasks_executed, 301);
}

#[test]
fn galaxy_workflow_over_tcp_dyn_auto_redis() {
    let server = Server::start(0).unwrap();
    let (exe, results) = astro::build(&fast_cfg());
    let mapping = DynAutoRedis::new(RedisBackend::Tcp(server.addr()));
    let report = mapping.execute(&exe, &ExecutionOptions::new(6)).unwrap();
    assert_eq!(results.lock().len(), 100);
    assert!(
        !report.scaling_trace.is_empty(),
        "idle-time monitor must trace"
    );
}

#[test]
fn sentiment_workflow_over_tcp_hybrid_redis() {
    let server = Server::start(0).unwrap();
    let (exe, results) = sentiment::build(&WorkloadConfig::standard().with_time_scale(0.0));
    let mapping = HybridRedis::new(RedisBackend::Tcp(server.addr()));
    mapping.execute(&exe, &ExecutionOptions::new(8)).unwrap();
    assert_eq!(results.lock().len(), 3);
}

#[test]
fn concurrent_runs_share_one_server_without_interference() {
    let server = Server::start(0).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let (exe, results) = astro::build(&fast_cfg());
                DynRedis::new(RedisBackend::Tcp(addr))
                    .execute(&exe, &ExecutionOptions::new(3))
                    .unwrap();
                let n = results.lock().len();
                n
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 100);
    }
}

#[test]
fn workflow_state_is_inspectable_mid_lifecycle() {
    // The queues the mappings create are ordinary Redis keys: verify an
    // operator can see them with vanilla commands after a run.
    let server = Server::start(0).unwrap();
    let (exe, _) = astro::build(&fast_cfg());
    DynRedis::new(RedisBackend::Tcp(server.addr()))
        .execute(&exe, &ExecutionOptions::new(3))
        .unwrap();
    let mut inspector = Client::connect(server.addr()).unwrap();
    let reply = inspector
        .request(&[b"KEYS".as_ref(), b"d4py:*".as_ref()])
        .unwrap();
    let keys = reply.as_array().expect("KEYS returns an array");
    assert!(!keys.is_empty(), "the run's stream key must exist");
    // Every data task was consumed (XDELed on read); anything left in the
    // stream is an unconsumed poison pill from the termination broadcast.
    let key = keys[0].as_text().unwrap();
    let entries = inspector
        .request(&[
            b"XRANGE".as_ref(),
            key.as_bytes(),
            b"-".as_ref(),
            b"+".as_ref(),
        ])
        .unwrap();
    for entry in entries.as_array().unwrap() {
        let body = entry.as_array().unwrap()[1].as_array().unwrap();
        let payload = match &body[1] {
            dispel4py::redis_lite::resp::Frame::Bulk(b) => b.clone(),
            other => panic!("unexpected body {other:?}"),
        };
        let item = dispel4py::core::codec::decode_item(&payload).unwrap();
        assert_eq!(
            item,
            dispel4py::core::task::QueueItem::Pill,
            "only pills may remain"
        );
    }
}

// ---- cluster routing over the wire ----

#[test]
fn cluster_routes_a_key_to_exactly_one_shard() {
    use dispel4py::redis::cluster::key_shard;
    use dispel4py::redis_lite::client::RedisOps;

    let shards = [Server::start(0).unwrap(), Server::start(0).unwrap()];
    let backend = RedisBackend::cluster(shards.iter().map(|s| s.addr()).collect());
    let mut c = backend.connect().unwrap();
    for i in 0..32 {
        let key = format!("route:{i}");
        c.set(key.as_bytes(), b"here").unwrap();
    }
    // Ask each server directly: every key must live on exactly the shard
    // the slot map names, and on no other.
    let mut direct: Vec<Client> = shards
        .iter()
        .map(|s| Client::connect(s.addr()).unwrap())
        .collect();
    for i in 0..32 {
        let key = format!("route:{i}");
        let owner = key_shard(key.as_bytes(), direct.len());
        for (s, conn) in direct.iter_mut().enumerate() {
            let got = conn.get(key.as_bytes()).unwrap();
            if s == owner {
                assert_eq!(got, Some(b"here".to_vec()), "{key} missing from shard {s}");
            } else {
                assert_eq!(got, None, "{key} leaked onto shard {s}");
            }
        }
    }
}

#[test]
fn cluster_spreads_keys_and_aggregates_across_shards() {
    use dispel4py::redis::cluster::key_shard;
    use dispel4py::redis_lite::client::RedisOps;

    let shards = [Server::start(0).unwrap(), Server::start(0).unwrap()];
    let backend = RedisBackend::cluster(shards.iter().map(|s| s.addr()).collect());
    let mut c = backend.connect().unwrap();
    // Enough distinct stream keys to land on both shards.
    let keys: Vec<String> = (0..8).map(|i| format!("spread:{i}")).collect();
    let owners: Vec<usize> = keys.iter().map(|k| key_shard(k.as_bytes(), 2)).collect();
    assert!(
        owners.contains(&0) && owners.contains(&1),
        "8 keys must spread over 2 shards, got {owners:?}"
    );
    for k in &keys {
        c.xadd(k.as_bytes(), b"f", b"v").unwrap();
    }
    // Per-key reads route to the owning shard...
    for k in &keys {
        let entries = c.request(&[b"XRANGE", k.as_bytes(), b"-", b"+"]).unwrap();
        let entries = entries
            .as_array()
            .map(<[dispel4py::redis_lite::resp::Frame]>::len);
        assert_eq!(entries, Some(1), "{k}");
    }
    // ...and shard-spanning aggregates see the union: DBSIZE fans out and
    // sums, KEYS fans out and concatenates.
    let total = c.request(&[b"DBSIZE".as_ref()]).unwrap();
    assert_eq!(
        total,
        dispel4py::redis_lite::resp::Frame::Integer(keys.len() as i64)
    );
    let listed = c
        .request(&[b"KEYS".as_ref(), b"spread:*".as_ref()])
        .unwrap();
    assert_eq!(
        listed.as_array().map(<[_]>::len),
        Some(keys.len()),
        "KEYS must aggregate across shards"
    );
    // Sanity: neither shard holds everything on its own.
    for s in &shards {
        let mut direct = Client::connect(s.addr()).unwrap();
        let local = direct.request(&[b"DBSIZE".as_ref()]).unwrap();
        let dispel4py::redis_lite::resp::Frame::Integer(n) = local else {
            panic!("DBSIZE must return an integer, got {local:?}");
        };
        assert!(
            n > 0 && (n as usize) < keys.len(),
            "each shard holds a strict subset, shard had {n}"
        );
    }
}

#[test]
fn galaxy_workflow_runs_over_a_two_shard_cluster() {
    let shards = [Server::start(0).unwrap(), Server::start(0).unwrap()];
    let backend = RedisBackend::cluster(shards.iter().map(|s| s.addr()).collect());
    let (exe, results) = astro::build(&fast_cfg());
    let mapping = DynRedis::new(backend);
    let report = mapping.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(results.lock().len(), 100);
    assert_eq!(report.tasks_executed, 301);
}
