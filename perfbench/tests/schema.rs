//! `BENCHMARK.json` against the contract it is written to, against
//! `spec.rs`, and against what a run really prints.

use vectorh_bench::report::{parse, Json};
use vectorh_perfbench::report::result_line;
use vectorh_perfbench::run::{run, RunOpts};
use vectorh_perfbench::spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use vectorh_perfbench::workloads::Budget;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap()
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{key}'"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_meets_the_contract_and_equals_the_spec() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = b
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let command = b.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    for arg in command.iter().map(|a| a.as_str().unwrap()) {
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = b.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(
        workloads
            .iter()
            .map(|w| str_of(w, "name"))
            .collect::<Vec<_>>(),
        WORKLOADS.map(Workload::name)
    );
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(is_name(str_of(w, "name")) && why.len() <= 200 && !why.contains('\n'));
    }
    let e2e = b.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, spec) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(j, "name"), spec.name);
        assert_eq!(str_of(j, "unit"), spec.unit);
        assert_eq!(str_of(j, "better"), spec.better.as_str());
        let bound = j.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(bound, spec.bound);
        assert!(bound > 0.0 && bound <= 0.25 && is_name(spec.name) && is_unit(spec.unit));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, spec) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(str_of(j, "name"), spec.name);
        assert_eq!(str_of(j, "unit"), spec.unit);
        assert_eq!(str_of(j, "better"), spec.better.as_str());
        assert!(is_name(spec.name) && is_unit(spec.unit), "{}", spec.name);
        let (metric, workload) = spec.moves;
        assert!(
            END_TO_END.iter().any(|m| m.name == metric),
            "{} moves unknown {metric}",
            spec.name
        );
        assert!(
            Workload::from_name(workload).is_some(),
            "{} moves on unknown {workload}",
            spec.name
        );
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    names.extend(WORKLOADS.map(Workload::name));
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
}

/// What the driver will read: the last line parses, and carries exactly
/// the declared metrics of its mode with their declared units.
#[test]
fn a_tiny_run_prints_exactly_the_declared_metrics() {
    for trace in [false, true] {
        let report = run(RunOpts {
            workload: Workload::ScanQ1Q6,
            seed: 5,
            budget: Budget::Rounds(if trace { 3 } else { 55 }),
            trace,
            sf: Some(0.002),
        })
        .unwrap();
        let line = parse(&result_line(&report)).unwrap();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let declared: Vec<(&str, &str)> = match trace {
            false => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            true => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        };
        let printed = line.get("metrics").unwrap();
        assert_eq!(
            keys(printed),
            declared.iter().map(|d| d.0).collect::<Vec<_>>()
        );
        for (name, unit) in declared {
            let m = printed.get(name).unwrap();
            assert_eq!(keys(m), ["value", "unit"]);
            assert_eq!(str_of(m, "unit"), unit);
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite());
            assert!(
                trace || value > 0.0,
                "end-to-end metric {name} must never be 0"
            );
        }
    }
}
