//! Integration: state externalization — stateful instances snapshot their
//! aggregates and warm-start a later run (incremental processing across
//! sessions).

use dispel4py::core::state::{MemoryStateStore, StateStore};
use dispel4py::prelude::*;
use dispel4py::redis::RedisStateStore;
use dispel4py::workflows::sentiment::{self, ARTICLES_PER_X};
use std::sync::Arc;

fn cfg(scale: u32, seed: u64) -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_scale(scale)
        .with_time_scale(0.0)
        .with_seed(seed)
}

fn total_count(results: &d4py_sync::Mutex<Vec<Value>>) -> i64 {
    results
        .lock()
        .iter()
        .map(|r| r.get("count").unwrap().as_int().unwrap())
        .sum()
}

#[test]
fn warm_start_continues_aggregation_across_runs() {
    let backend = RedisBackend::in_proc();
    let store: Arc<dyn StateStore> =
        Arc::new(RedisStateStore::new(&backend, "d4py:state:warm").unwrap());

    // Session 1: 100 articles.
    let (exe, r1) = sentiment::build(&cfg(1, 11));
    HybridRedis::new(backend.clone())
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let first_total = total_count(&r1);
    assert!(first_total > 0);

    // Session 2: 100 *different* articles, warm-started from session 1's
    // snapshots. The top-3 counts must now reflect both sessions.
    let (exe, r2) = sentiment::build(&cfg(1, 22));
    HybridRedis::new(backend.clone())
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let second_total = total_count(&r2);
    assert!(
        second_total > first_total,
        "second session ({second_total}) must include first session's counts ({first_total})"
    );

    // Cold control: the same second corpus without warm start aggregates
    // strictly less.
    let (exe, r3) = sentiment::build(&cfg(1, 22));
    HybridRedis::new(backend)
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    assert!(total_count(&r3) < second_total);
}

#[test]
fn snapshots_cover_every_stateful_instance_that_saw_data() {
    let backend = RedisBackend::in_proc();
    let store = Arc::new(RedisStateStore::new(&backend, "d4py:state:slots").unwrap());
    let (exe, _) = sentiment::build(&cfg(2, 5));
    HybridRedis::new(backend)
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let slots = store.slots().unwrap();
    // happyState has 4 instances; group-by over 16 states reaches most of
    // them. Only PEs implementing snapshot() appear (TopThree does not).
    assert!(
        slots
            .iter()
            .filter(|s| s.starts_with("happyState#"))
            .count()
            >= 2,
        "slots: {slots:?}"
    );
    assert!(
        slots.iter().all(|s| s.starts_with("happyState#")),
        "slots: {slots:?}"
    );
}

#[test]
fn memory_store_works_with_hybrid_multi() {
    use dispel4py::core::mappings::hybrid::run_hybrid_with_state;

    let store = MemoryStateStore::new();
    let (exe, r1) = sentiment::build(&cfg(1, 3));
    run_hybrid_with_state(
        &exe,
        &ExecutionOptions::new(8),
        &HybridMulti,
        "hybrid_multi",
        Some(store.clone()),
    )
    .unwrap();
    let first = total_count(&r1);
    // Scored twice per article (AFINN + SWN3): totals over all states would
    // be 2×100; the top-3 subset is smaller but positive.
    assert!(first > 0 && first <= 2 * ARTICLES_PER_X as i64);

    let (exe, r2) = sentiment::build(&cfg(1, 4));
    run_hybrid_with_state(
        &exe,
        &ExecutionOptions::new(8),
        &HybridMulti,
        "hybrid_multi",
        Some(store),
    )
    .unwrap();
    assert!(total_count(&r2) > first);
}

#[test]
fn runs_without_store_are_unaffected() {
    let (exe, results) = sentiment::build(&cfg(1, 7));
    HybridRedis::new(RedisBackend::in_proc())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    assert_eq!(results.lock().len(), 3);
}
