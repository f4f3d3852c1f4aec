//! The process-global roll-up keeps what dropped registries counted, not
//! the levels their gauges reported, and a live gauge rolls up to the
//! largest level, not the sum. Its own test binary: the roll-up is
//! process-wide, and no other test may open a store alongside.

use classic_store::DurableKb;

fn generation_in_roll_up() -> u64 {
    classic_obs::snapshot_all().gauges["classic_store_generation"].1
}

#[test]
fn dropped_stores_leave_no_generation_in_the_roll_up() {
    let root = std::env::temp_dir().join(format!("classic-rollup-gauges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for ix in 0..3 {
        let dir = root.join(format!("dropped-{ix}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
        store.create_ind("Rocky").unwrap();
        store.compact().unwrap();
        store.create_ind("Bullwinkle").unwrap();
        store.compact().unwrap();
    }
    let open_live = |name: &str| {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let mut live = DurableKb::open(dir.join("kb.log"), |_| {}).unwrap();
        live.create_ind("Natasha").unwrap();
        live.compact().unwrap();
        live
    };
    let live = open_live("live");
    assert_eq!(
        generation_in_roll_up(),
        1,
        "the one live store is at generation 1"
    );
    let other = open_live("other");
    assert_eq!(
        generation_in_roll_up(),
        1,
        "two live stores at generation 1 roll up to generation 1"
    );
    drop((live, other));
    let _ = std::fs::remove_dir_all(&root);
}
