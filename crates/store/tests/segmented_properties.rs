//! Property-based tests for the segmented snapshot store: after any of
//! the shared histories (tests/support/history.rs) — wherever compaction
//! lands inside it, whatever the segment budget, and in whatever order
//! segments hydrate afterwards — the store must reopen (eagerly *and*
//! paged) to exactly the state of an in-memory KB that ran the same
//! history.

use classic_lang::parse;
use classic_store::{snapshot_to_string, DurableKb};
use history::Run;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "../../../tests/support/history.rs"]
mod history;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "classic-segprop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any history, compacted at any point, reopens — eagerly and paged
    /// with segments hydrated in an arbitrary order — to the state of an
    /// in-memory KB that ran the same history. The budget spreads the
    /// base's five individuals over two to five segments. Checked over
    /// the steps before the first case a snapshot gets wrong (see
    /// `Run::snapshot_steps`).
    #[test]
    fn segmented_reopen_matches_in_memory_history(
        steps in history::history(16),
        compact_pos in 0usize..16,
        budget in 1usize..=3,
        order_seed in 0u64..u64::MAX,
    ) {
        let steps = &steps[..Run::over(&steps).snapshot_steps()];
        let dir = tmpdir();
        let path = dir.join("kb.log");
        let compact_at = compact_pos.min(steps.len());

        let mut run = Run::default();
        let mut store = DurableKb::open(&path, history::register).unwrap();
        store.set_segment_budget(budget);
        for cmd in parse(&history::base_script()).unwrap() {
            store.eval_durable(&cmd).unwrap();
        }
        for (i, step) in steps.iter().enumerate() {
            if i == compact_at {
                store.compact().unwrap();
            }
            let done = run.step(step);
            if let Some(outcome) = done.send(|cmd| store.eval_durable(cmd)) {
                prop_assert_eq!(history::verdict(&outcome), (done.accepted, done.steps));
            }
        }
        if compact_at == steps.len() {
            store.compact().unwrap();
        }
        history::assert_same(&run.kb, store.kb().unwrap(), "live store");
        let live_text = snapshot_to_string(store.kb().unwrap());
        drop(store);

        // Eager reopen: same state as the in-memory history, and the
        // snapshot text is a fixed point of the segmented round trip.
        let eager = DurableKb::open(&path, history::register).unwrap();
        history::assert_same(&run.kb, eager.kb().unwrap(), "eager reopen");
        prop_assert_eq!(&live_text, &snapshot_to_string(eager.kb().unwrap()));
        drop(eager);

        // Paged reopen, hydrating in an adversarial (random) order.
        let mut names: Vec<String> = (run.kb.ind_ids())
            .map(|id| run.kb.schema().symbols.individual_name(run.kb.ind(id).name).to_owned())
            .collect();
        let mut rng = proptest::test_runner::TestRng::seed_from(order_seed);
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut paged = DurableKb::open_paged(&path, history::register).unwrap();
        for name in &names {
            paged.hydrate_for(name).unwrap();
        }
        prop_assert!(paged.is_fully_hydrated(), "every name touched ⇒ fully hydrated");
        history::assert_same(&run.kb, paged.kb().unwrap(), "paged reopen");
        drop(paged);

        // Compacting the reopened store is a fixed point.
        let mut again = DurableKb::open(&path, history::register).unwrap();
        again.set_segment_budget(budget);
        again.compact().unwrap();
        drop(again);
        let last = DurableKb::open(&path, history::register).unwrap();
        prop_assert_eq!(live_text, snapshot_to_string(last.kb().unwrap()));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
