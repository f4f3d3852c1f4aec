//! Cell values survive a restart byte for byte (docs/INGEST.md §3): a CSV
//! whose cells hold a CRLF, a bare CR and a zero-width space goes through
//! `plan` → `run_durable` (the `POST /ingest` path), the store is dropped
//! and reopened, and the reopened KB is `same_state` with the in-memory
//! load of the same plan — with and without schema inference.

use classic_core::desc::IndRef;
use classic_core::HostValue;
use classic_ingest::{plan, run_durable, run_in_memory, Format, IngestOptions};
use classic_store::{same_state, DurableKb};

const CSV: &str = "id,address,item\r\n\
                   r1,\"12 Main St\r\nSpringfield\",\"wid\u{200b}get\"\r\n\
                   r2,\"x\ry\",\"say \"\"hi\"\" \\ there\"\r\n";

#[test]
fn csv_cells_with_cr_lf_and_zero_width_space_reopen_same_state() {
    for infer in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "classic-ingest-restart-{infer}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kb.log");
        let opts = IngestOptions {
            format: Format::Csv,
            entity: "order".into(),
            id_column: Some("id".into()),
            infer,
            source: "restart-test".into(),
        };
        let plan = plan(CSV.as_bytes(), &opts).unwrap();
        assert!(!plan.tbox_script.contains('\r'), "{:?}", plan.tbox_script);
        let (oracle, report) = run_in_memory(&plan).unwrap();
        assert_eq!(report.accepted, 2);

        let mut store = DurableKb::open(&path, |_| {}).unwrap();
        assert_eq!(run_durable(&mut store, &plan).unwrap().report.accepted, 2);
        drop(store);

        let eager = DurableKb::open(&path, |_| {}).unwrap();
        assert!(same_state(&oracle, eager.kb().unwrap()), "infer={infer}");
        // Not merely equal to each other: equal to the cells.
        let kb = eager.kb().unwrap();
        let symbols = &kb.schema().symbols;
        let filler = |name: &str, role: &str| {
            let id = kb.ind_id(symbols.find_individual(name).unwrap()).unwrap();
            let role = symbols.find_role(role).unwrap();
            let fillers = &kb.ind(id).derived().roles[&role].fillers;
            match fillers.iter().next() {
                Some(IndRef::Host(HostValue::Str(s))) => s.clone(),
                other => panic!("expected one string filler, got {other:?}"),
            }
        };
        assert_eq!(filler("r1", "address"), "12 Main St\r\nSpringfield");
        assert_eq!(filler("r1", "item"), "wid\u{200b}get");
        assert_eq!(filler("r2", "address"), "x\ry");
        assert_eq!(filler("r2", "item"), "say \"hi\" \\ there");
        drop(eager);

        let mut paged = DurableKb::open_paged(&path, |_| {}).unwrap();
        assert!(same_state(&oracle, paged.kb_hydrated().unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
