//! Integration: stateful semantics across the stateful-capable mappings —
//! the property the hybrid mapping exists to preserve (§3.1.2).

use dispel4py::prelude::*;
use dispel4py::workflows::sentiment::{self, corpus};

fn fast_cfg() -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_scale(3)
        .with_time_scale(0.0)
}

fn top3_states(mapping: &dyn Mapping, workers: usize) -> Vec<String> {
    let (exe, results) = sentiment::build(&fast_cfg());
    mapping
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    let got = results.lock();
    assert_eq!(got.len(), 3, "{} must emit exactly a top-3", mapping.name());
    got.iter()
        .map(|r| r.get("state").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn stateful_mappings_agree_on_the_ranking() {
    let simple = top3_states(&Simple, 1);
    let multi = top3_states(&Multi, 14);
    let hybrid_multi = top3_states(&HybridMulti, 8);
    let hybrid_redis = top3_states(&HybridRedis::new(RedisBackend::in_proc()), 8);
    assert_eq!(simple, multi);
    assert_eq!(simple, hybrid_multi);
    assert_eq!(simple, hybrid_redis);
}

#[test]
fn plain_dynamic_mappings_reject_the_stateful_workflow() {
    let (exe, _) = sentiment::build(&fast_cfg());
    for (mapping, name) in [
        (Box::new(DynMulti) as Box<dyn Mapping>, "dyn_multi"),
        (
            Box::new(DynRedis::new(RedisBackend::in_proc())),
            "dyn_redis",
        ),
    ] {
        let err = mapping
            .execute(&exe, &ExecutionOptions::new(8))
            .unwrap_err();
        match err {
            CoreError::Analysis { mapping: m, report } => {
                assert_eq!(m, name);
                assert!(report.contains("error[D4PY401]"), "{report}");
            }
            other => panic!("expected the pool's refusal, got {other:?}"),
        }
    }
}

#[test]
fn ranking_reflects_constructed_mood_bias_at_scale() {
    let (exe, results) = sentiment::build(
        &WorkloadConfig::standard()
            .with_scale(10)
            .with_time_scale(0.0),
    );
    HybridMulti
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let winner_rows = results.lock();
    let winner = winner_rows[0]
        .get("state")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let expected = corpus::expected_ranking();
    let pos = expected.iter().position(|s| *s == winner).unwrap();
    assert!(pos < 5, "winner {winner} sits at mood-bias rank {pos}");
}

#[test]
fn hybrid_scales_stateless_pool_without_changing_results() {
    let small = top3_states(&HybridMulti, 7); // 6 stateful slots + 1 stateless
    let large = top3_states(&HybridMulti, 16);
    assert_eq!(small, large);
}

#[test]
fn counts_conserve_articles() {
    // Every article is scored twice (AFINN + SWN3); total count across the
    // top-3 rows is bounded by 2 × articles and the full aggregate equals
    // 2 × articles when summed over all states — check via a 1-state corpus
    // proxy: the sum of counts in top-3 can never exceed 2N.
    let (exe, results) = sentiment::build(&fast_cfg());
    HybridMulti
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let total: i64 = results
        .lock()
        .iter()
        .map(|r| r.get("count").unwrap().as_int().unwrap())
        .sum();
    assert!(
        total > 0 && total <= 2 * 300,
        "top-3 counts {total} out of range"
    );
}
