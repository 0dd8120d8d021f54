//! `BENCHMARK.json` and the program agree: same workloads, same metric
//! names and units, and the result line carries exactly what is listed.

use ipactive_benchmark::cli::result_json;
use ipactive_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ipactive_benchmark::workloads::{RunResult, WORKLOADS};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root of the repository")
}

/// The `"key": "value"` string fields called `key` inside the array that
/// follows `"section": [`, in order. Enough for this flat file.
fn fields(doc: &str, section: &str, key: &str) -> Vec<String> {
    let open = format!("\"{section}\": [");
    let body = &doc[doc.find(&open).unwrap_or_else(|| panic!("no {section}")) + open.len()..];
    let body = &body[..body.find(']').expect("array closes")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

/// The numbers under `"bound": ` in the `end_to_end` array, in order.
fn bounds(doc: &str) -> Vec<f64> {
    let body = &doc[doc.find("\"end_to_end\": [").expect("no end_to_end")..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"bound\": ")
        .skip(1)
        .map(|rest| {
            let number = &rest[..rest.find('}').expect("object closes")];
            number.trim().parse().expect("a bound is a number")
        })
        .collect()
}

fn names_and_units(defs: &[MetricDef]) -> (Vec<&str>, Vec<&str>) {
    (
        defs.iter().map(|d| d.name).collect(),
        defs.iter().map(|d| d.unit).collect(),
    )
}

#[test]
fn the_manifest_lists_the_workloads_and_metrics_the_program_has() {
    let doc = manifest();
    assert_eq!(fields(&doc, "workloads", "name"), WORKLOADS);
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let (names, units) = names_and_units(defs);
        assert_eq!(fields(&doc, section, "name"), names, "{section} names");
        assert_eq!(fields(&doc, section, "unit"), units, "{section} units");
    }
    assert!(fields(&doc, "end_to_end", "name").contains(&"setup_s".to_string()));
    let want: Vec<f64> = END_TO_END.iter().filter_map(|d| d.bound).collect();
    assert_eq!(bounds(&doc), want, "end_to_end bounds");
    assert!(want.len() == END_TO_END.len() && want.iter().all(|b| *b > 0.0 && *b <= 0.25));
    assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    assert!(doc.contains("\"paths\": [\"benchmark\"]"));
}

#[test]
fn names_are_unique_and_inside_the_limits() {
    let mut seen = std::collections::BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name))
    {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(def.unit.len() <= 16, "{}", def.unit);
        assert!(def
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
}

#[test]
fn the_result_line_has_exactly_the_four_keys_and_the_listed_metrics() {
    let result = RunResult {
        correct: true,
        attempted: 12,
        failed: 0,
        failures: Vec::new(),
        metrics: END_TO_END
            .iter()
            .map(|d| (d.name, 1.2034, d.unit))
            .collect(),
        trace_json: None,
    };
    let line = result_json(&result);
    assert!(!line.contains('\n'));
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {")
    );
    assert!(line.ends_with("}}}"));
    for def in END_TO_END {
        let entry = format!(
            "\"{}\": {{\"value\": 1.2034, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
        assert!(line.contains(&entry), "{line} lacks {entry}");
    }
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
}
