//! Determinism and cache-correctness suite for the certified-analysis query
//! service: every certified interval must be **bit-identical** no matter
//! how it was reached — cold cache, warm cache, coalesced with concurrent
//! duplicates, any worker count, or recomputed after eviction. The service
//! guarantees this by construction (answers are pure functions of the
//! rounded query via the canonical anchor lattice); this suite is the
//! regression net around that construction.

use selfish_mining_repro::selfish_mining::ConsensusBackend;
use selfish_mining_repro::service::{Answer, Query, Service, ServiceConfig, ServiceError};

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        ..ServiceConfig::default()
    }
}

fn service(workers: usize) -> Service {
    Service::new(config(workers)).expect("default-based config is valid")
}

/// A small mixed batch: two topologies, two γ, two consensus backends, on-
/// and off-lattice `p`, one duplicate pair, cheap enough for CI.
fn mixed_batch() -> Vec<Query> {
    let base = Query {
        depth: 1,
        forks_per_block: 1,
        epsilon: 5e-3,
        ..Query::default()
    };
    vec![
        Query { p: 0.1, ..base },
        Query {
            p: 0.1,
            backend: ConsensusBackend::Vdf,
            ..base
        }, // first point again, on its own per-backend curve
        Query { p: 0.137, ..base },
        Query {
            p: 0.2,
            gamma: 0.25,
            ..base
        },
        Query {
            p: 0.25,
            depth: 2,
            ..base
        },
        Query { p: 0.1, ..base }, // duplicate of the first
        Query {
            p: 0.212,
            depth: 2,
            ..base
        },
    ]
}

fn intervals(results: &[Result<Answer, ServiceError>]) -> Vec<(f64, f64, f64)> {
    results
        .iter()
        .map(|result| {
            let answer = result.as_ref().expect("batch queries are valid");
            (
                answer.interval.beta_low,
                answer.interval.beta_up,
                answer.interval.strategy_revenue,
            )
        })
        .collect()
}

#[test]
fn batches_are_bit_identical_across_worker_counts() {
    let batch = mixed_batch();
    let serial = intervals(&service(1).answer_batch(&batch));
    let four = intervals(&service(4).answer_batch(&batch));
    let eight = intervals(&service(8).answer_batch(&batch));
    assert_eq!(serial, four, "4-worker batch must match serial");
    assert_eq!(serial, eight, "8-worker batch must match serial");
}

#[test]
fn warm_answers_are_bit_identical_to_cold_answers() {
    let batch = mixed_batch();
    // Cold: every query on its own fresh service.
    let cold: Vec<_> = batch
        .iter()
        .map(|query| service(1).answer(query).expect("valid query").interval)
        .collect();
    // Warm: the same queries through one long-lived service, twice.
    let shared = service(1);
    let first: Vec<_> = batch
        .iter()
        .map(|query| shared.answer(query).expect("valid query").interval)
        .collect();
    let second: Vec<_> = batch
        .iter()
        .map(|query| shared.answer(query).expect("valid query").interval)
        .collect();
    assert_eq!(cold, first, "warm-start chain must not change answers");
    assert_eq!(cold, second, "memoized answers must echo the solved ones");
    // The second pass is all cache hits.
    assert!(shared.stats().cache_hits >= batch.len() as u64);
}

#[test]
fn concurrent_duplicates_coalesce_into_one_solve() {
    let service = service(4);
    let query = Query {
        depth: 2,
        forks_per_block: 1,
        p: 0.213,
        epsilon: 5e-3,
        ..Query::default()
    };
    let batch = vec![query; 8];
    let results = service.answer_batch(&batch);
    let answers: Vec<_> = results
        .into_iter()
        .map(|result| result.expect("valid query"))
        .collect();
    let reference = &answers.first().expect("non-empty batch").interval;
    for answer in &answers {
        assert_eq!(&answer.interval, reference);
    }
    let stats = service.stats();
    // One thread advanced the chain (anchors 0..0.20) and probed once; the
    // other seven queued behind it and were served from the memo.
    assert_eq!(stats.probes, 1, "duplicates must not re-probe");
    assert_eq!(stats.anchor_advances, 5, "duplicates must not re-advance");
    assert_eq!(stats.cache_hits, 7);
    assert_eq!(stats.arena_builds, 1, "duplicates must share the arena");
    // With more queries than workers at least one duplicate demonstrably
    // queued behind the solver; under contention-free schedules this can
    // legitimately be zero, so only bound it.
    assert!(stats.coalesced <= 7);
}

#[test]
fn eviction_under_memory_pressure_never_changes_answers() {
    let tiny = Service::new(ServiceConfig {
        max_arenas: 1,
        max_curves: 1,
        max_memo_points: 1,
        workers: 1,
    })
    .expect("tiny caps are valid");
    let roomy = service(1);
    let batch = mixed_batch();
    // Two passes so the second run re-answers queries whose curves the
    // first pass evicted (the batch alternates topologies and γ).
    let mut squeezed = intervals(&tiny.answer_batch(&batch));
    squeezed.extend(intervals(&tiny.answer_batch(&batch)));
    let mut reference = intervals(&roomy.answer_batch(&batch));
    reference.extend(intervals(&roomy.answer_batch(&batch)));
    assert_eq!(
        squeezed, reference,
        "evicted state must rebuild identically"
    );
    let stats = tiny.stats();
    assert!(
        stats.curve_evictions > 0 && stats.arena_evictions > 0,
        "caps of 1 must evict on this batch: {stats:?}"
    );
    assert!(tiny.cached_arenas() <= 1);
    assert!(tiny.cached_curves() <= 1);
    // The roomy service kept everything resident.
    assert_eq!(roomy.stats().curve_evictions, 0);
    assert!(roomy.resident_arena_bytes() > 0);
}

#[test]
fn jsonl_transcripts_are_deterministic_across_budgets_and_cache_states() {
    use selfish_mining_repro::service::jsonl::serve;
    let script = concat!(
        "{\"p\": 0.1, \"d\": 1, \"f\": 1, \"epsilon\": 0.005}\n",
        "{\"p\": 0.137, \"d\": 1, \"f\": 1, \"epsilon\": 0.005}\n",
        "{\"p\": 0.1, \"d\": 1, \"f\": 1, \"epsilon\": 0.005}\n",
        "{\"op\": \"stats\"}\n",
    );
    let transcript = |workers: usize| {
        let service = service(workers);
        let mut output = Vec::new();
        serve(&service, script.as_bytes(), &mut output).expect("memory i/o");
        String::from_utf8(output).expect("utf-8 responses")
    };
    let serial = transcript(1);
    assert_eq!(serial, transcript(4), "thread budget must not leak");
    assert_eq!(serial, transcript(8));
}

#[test]
fn smoke_script_replays_the_golden_transcript_byte_for_byte() {
    // The committed smoke script and its recorded transcript: any changed
    // certified bit on the service path shows up as a diff here.
    use selfish_mining_repro::service::jsonl::serve;
    let script = include_str!("../crates/service/smoke/queries.jsonl");
    let golden = include_str!("../crates/service/smoke/golden.jsonl");
    let mut output = Vec::new();
    serve(&service(1), script.as_bytes(), &mut output).expect("memory i/o");
    let transcript = String::from_utf8(output).expect("utf-8 responses");
    assert_eq!(transcript, golden);
}
