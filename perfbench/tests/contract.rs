//! The benchmark's own checks, on a seconds-scale subset of its configs.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbench::answers::AnswerBook;
use perfbench::inputs::Scope;
use perfbench::{Options, Workload};

fn repo_file(name: &str) -> serde::Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).expect("benchmark file readable");
    serde_json::from_str(&text).expect("benchmark file is JSON")
}

fn benchmark_json() -> serde::Value {
    repo_file("../BENCHMARK.json")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .field(section)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.field("name").unwrap().as_str().unwrap().to_owned(),
                m.field("unit").unwrap().as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

/// Two cheap layers: the subset every workload runs in these tests.
fn tiny(workload: Workload, trace: bool, dir: &str) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        scope: Scope::subset(&["res5_1x1c", "res4_3x3"]),
        out_dir: std::env::temp_dir().join(format!("perfbench-test-{dir}-{}", std::process::id())),
    }
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = tiny(workload, trace, workload.name());
            let outcome = perfbench::run(&opts);
            let _ = std::fs::remove_dir_all(&opts.out_dir);
            assert!(
                outcome.correct(),
                "{} trace {trace}: {:?}",
                workload.name(),
                outcome.error
            );
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            assert_eq!(emitted, listed(section), "{} {section}", workload.name());
            assert!(outcome
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value >= 0.0 || m.name == "server.other_us"));

            let line: serde::Value = serde_json::from_str(&outcome.result_line()).unwrap();
            let serde::Value::Obj(fields) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.field("attempted").unwrap().as_u64().unwrap() >= 1);
        }
    }
}

#[test]
fn catalogue_describes_exactly_the_listed_metrics_and_workloads() {
    let catalogue = repo_file("metrics.json");
    let names = |value: &serde::Value| -> BTreeSet<String> {
        match value {
            serde::Value::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => panic!("catalogue section is not an object"),
        }
    };
    for section in ["end_to_end", "per_layer"] {
        let listed: BTreeSet<String> = listed(section).into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names(catalogue.field(section).unwrap()),
            listed,
            "{section}"
        );
    }
    let workloads: BTreeSet<String> = benchmark_json()
        .field("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.field("name").unwrap().as_str().unwrap().to_owned())
        .collect();
    assert_eq!(names(catalogue.field("workloads").unwrap()), workloads);
    let unscored = names(catalogue.field("unscored_workloads").unwrap());
    assert!(workloads.is_disjoint(&unscored));
    let known: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(&workloads | &unscored, known);
    let per_layer: Vec<String> = perfbench::layers::PER_LAYER
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    let listed_per_layer: Vec<String> = listed("per_layer").into_iter().map(|(n, _)| n).collect();
    assert_eq!(per_layer, listed_per_layer);
}

/// A real answer line from a one-query service.
fn answer_line(dir: &std::path::Path) -> String {
    let scope = Scope::subset(&["res5_1x1c"]);
    let line = scope.query_lines(1).remove(0);
    let mut config = ruby_server::ServiceConfig::new(dir.join("store.log"));
    config.workers = 1;
    let service = ruby_server::MapperService::open(config).unwrap();
    ruby_server::wire::handle_line(&service, &line, None).unwrap()
}

#[test]
fn a_corrupted_answer_trips_the_output_check() {
    let dir = std::env::temp_dir().join(format!("perfbench-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = answer_line(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let mut book = AnswerBook::default();
    book.check(&good, false).expect("a real answer passes");
    book.check(&good, false)
        .expect("the same answer again passes");
    assert!(
        book.check(&good, true).is_err(),
        "a cold answer is not a warm one"
    );

    let value: serde::Value = serde_json::from_str(&good).unwrap();
    let cost = value.field("cost").unwrap().as_f64().unwrap();
    let corrupted = good.replacen(
        &format!(
            "\"cost\":{}",
            serde_json::to_string(&serde::Value::F64(cost)).unwrap()
        ),
        &format!(
            "\"cost\":{}",
            serde_json::to_string(&serde::Value::F64(cost * 1.5)).unwrap()
        ),
        1,
    );
    assert_ne!(corrupted, good, "the corruption must change the line");
    assert!(
        book.check(&corrupted, false).is_err(),
        "a changed cost is caught"
    );

    let partial = good.replacen("\"source\":\"search\"", "\"source\":\"partial\"", 1);
    assert_ne!(partial, good);
    assert!(
        AnswerBook::default().check(&partial, false).is_err(),
        "a partial answer is not terminal"
    );
    assert!(AnswerBook::default()
        .check("{\"schema\":2,\"error\":\"search failed\"}", false)
        .is_err());
}
