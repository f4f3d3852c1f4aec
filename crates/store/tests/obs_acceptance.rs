//! PR acceptance: a crime-db-style workload driven through a durable
//! store must leave nonzero subsumption, propagation, and store-append
//! series visible in *both* exposition formats. This is the end-to-end
//! check that the instrumentation actually covers the hot paths — a
//! metric that never moves under a real workload is a name, not a
//! measurement.

use classic_core::desc::{Concept, IndRef};
use classic_store::DurableKb;
use std::path::PathBuf;

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("classic-obs-acceptance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn crime_workload(store: &mut DurableKb) {
    store.define_role("commits").unwrap();
    store.define_role("investigated-by").unwrap();
    store
        .define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    store
        .define_concept("CRIME", Concept::primitive(Concept::thing(), "crime"))
        .unwrap();
    let person = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_concept("PERSON")
        .unwrap();
    let commits = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("commits")
        .unwrap();
    store
        .define_concept(
            "SUSPECT",
            Concept::and([Concept::Name(person), Concept::AtLeast(1, commits)]),
        )
        .unwrap();
    let investigated = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_role("investigated-by")
        .unwrap();
    store
        .assert_rule("SUSPECT", Concept::AtLeast(1, investigated))
        .unwrap();

    let crime_c = store
        .kb()
        .unwrap()
        .schema()
        .symbols
        .find_concept("CRIME")
        .unwrap();
    for i in 0..8 {
        let name = format!("Person-{i}");
        store.create_ind(&name).unwrap();
        store.assert_ind(&name, &Concept::Name(person)).unwrap();
        let crime = format!("Crime-{i}");
        store.create_ind(&crime).unwrap();
        store.assert_ind(&crime, &Concept::Name(crime_c)).unwrap();
        let filler = IndRef::Classic(
            store
                .kb()
                .unwrap()
                .schema()
                .symbols
                .find_individual(&crime)
                .expect("just created"),
        );
        // FILLS + ALL drives real ALL-propagation, and SUSPECT
        // recognition drives subsumption tests and the rule.
        store
            .assert_ind(&name, &Concept::Fills(commits, vec![filler]))
            .unwrap();
        store
            .assert_ind(&name, &Concept::all(commits, Concept::Name(crime_c)))
            .unwrap();
    }
}

#[test]
fn workload_moves_subsumption_propagation_and_append_series_in_both_expositions() {
    // The default level already counts; pin it in case another test in
    // this process changed the global.
    classic_obs::set_level(classic_obs::ObsLevel::Counters);
    let dir = tmpdir();
    let mut store = DurableKb::open(dir.join("crime.classic"), |_| {}).unwrap();
    crime_workload(&mut store);

    let snap = store.kb().unwrap().metrics().snapshot();
    let series = [
        "classic_subsume_tests_total",
        "classic_propagation_steps_total",
        "classic_store_appends_total",
    ];
    for name in series {
        let (_, v) = snap
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        assert!(*v > 0, "{name} must be nonzero after the workload");
    }

    let prom = classic_obs::render_prometheus(&snap);
    let json = classic_obs::render_json(&snap);
    for name in series {
        let v = snap.counters[name].1;
        assert!(
            prom.contains(&format!("# TYPE {name} counter")),
            "{name} TYPE line missing from Prometheus exposition"
        );
        assert!(
            prom.contains(&format!("{name} {v}")),
            "{name} sample missing from Prometheus exposition"
        );
        assert!(
            json.contains(&format!("\"{name}\":{v}")),
            "{name} missing from JSON exposition"
        );
    }
}
