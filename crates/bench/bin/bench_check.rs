//! Validate a committed `BENCH_*.json` perf report.
//!
//! CI runs this against both freshly generated quick reports and the
//! committed artifacts (`BENCH_pr6.json`, `BENCH_pr8.json`): the file must
//! exist, parse through the in-tree JSON parser, contain entries, and pass
//! every acceptance gate that applies to its contents:
//!
//! * **unpack reports** — when the recording host dispatched a vector arm,
//!   at least 2x cycles/value improvement on every narrow bit-unpack width
//!   (≤ 16);
//! * **load_gen reports** — zero client-visible failures, positive
//!   throughput, and a complete counter set (the front door's "node death
//!   is invisible" promise, machine-checked in the artifact).
//!
//! A report matching no gate fails. Exits nonzero (panics) on any
//! violation, so a regression that sneaks into a committed artifact turns
//! the build red.

use vectorh_bench::report::{parse, parse_report, Entry};

fn check_unpack(path: &str, entries: &[Entry], dispatch: &str) -> usize {
    let mut checked = 0;
    for w in [1u8, 2, 3, 4, 5, 7, 8, 12, 16] {
        let group = format!("unpack-w{w}");
        let Some(e) = entries
            .iter()
            .find(|e| e.group == group && e.case == "speedup")
        else {
            continue;
        };
        checked += 1;
        if dispatch != "scalar" {
            assert!(
                e.value >= 2.0,
                "{path}: {group} speedup {:.2}x < 2x (dispatch {dispatch})",
                e.value
            );
        }
    }
    checked
}

fn check_load_gen(path: &str, entries: &[Entry]) -> usize {
    let get = |case: &str| {
        entries
            .iter()
            .find(|e| e.group == "load_gen" && e.case == case)
            .unwrap_or_else(|| panic!("{path}: load_gen report missing `{case}`"))
            .value
    };
    assert!(
        get("client_visible_failures") == 0.0,
        "{path}: client-visible failures recorded"
    );
    assert!(get("queries") >= get("clients"), "{path}: partial run");
    assert!(get("qps") > 0.0, "{path}: nonpositive throughput");
    for case in ["p50", "p99", "retries_absorbed", "rejected_busy"] {
        let v = get(case);
        assert!(v >= 0.0, "{path}: {case} = {v} is negative");
    }
    1
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: bench_check <report.json>");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let entries = parse_report(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(!entries.is_empty(), "{path}: report has no entries");
    let doc = parse(&text).expect("already parsed once");
    let dispatch = doc
        .get("meta")
        .and_then(|m| m.get("dispatch_after"))
        .and_then(|v| v.as_str())
        .unwrap_or("unknown")
        .to_string();

    let mut gates = Vec::new();
    let unpack = check_unpack(&path, &entries, &dispatch);
    if unpack > 0 {
        gates.push(format!(
            "{unpack} narrow unpack widths >= 2x (dispatch {dispatch})"
        ));
    }
    if entries.iter().any(|e| e.group == "load_gen") {
        check_load_gen(&path, &entries);
        gates.push("load_gen: zero client-visible failures".to_string());
    }
    assert!(
        !gates.is_empty(),
        "{path}: no acceptance gate applies to this report"
    );
    println!("{path}: {} entries ok; {}", entries.len(), gates.join("; "));
}
