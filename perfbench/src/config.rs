//! Fixed benchmark settings (`perfbench/config.json`, compiled in) and
//! the run metadata printed with every result.

use crate::report::{Fnv, Report};
use em_serve::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const CONFIG: &str = include_str!("../config.json");

/// The parsed `config.json`. Panics if it is malformed: it is part of the
/// benchmark's source, and the tests parse it.
pub fn config() -> &'static Json {
    static PARSED: OnceLock<Json> = OnceLock::new();
    PARSED.get_or_init(|| parse_json(CONFIG).expect("perfbench/config.json is valid JSON"))
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |node, key| {
        node.get(key)
            .unwrap_or_else(|| panic!("config.json lacks {}", path.join(".")))
    })
}

/// A number from `config.json`, by key path.
pub fn num(path: &[&str]) -> f64 {
    field(config(), path)
        .as_f64()
        .unwrap_or_else(|| panic!("config.json {} is not a number", path.join(".")))
}

/// A list of numbers from `config.json`, by key path.
pub fn nums(path: &[&str]) -> Vec<f64> {
    field(config(), path)
        .as_array()
        .unwrap_or_else(|| panic!("config.json {} is not an array", path.join(".")))
        .iter()
        .map(|v| v.as_f64().expect("numeric array entry"))
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The git revision when the checkout is itself a git repository, else
/// `none` (an enclosing repository is never consulted).
fn git_rev() -> String {
    std::process::Command::new("git")
        .arg("--git-dir")
        .arg(repo_root().join(".git"))
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV digest of every file under `crates/` (sorted paths + contents):
/// identifies the measured code even where git is absent.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let root = repo_root().join("crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    h.hex()
}

/// One JSON line of run metadata: revision, source digest, parallelism,
/// kernel backend, seed, output digests and the sample count of every
/// metric.
pub fn metadata_json(workload: &str, seed: u64, trace: bool, report: &Report) -> String {
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {}, \
         \"kernel_backend\": \"{}\", \"output_digests\": {{{}}}, \"samples\": {}}}}}",
        trace as u8,
        git_rev(),
        source_digest(),
        em_pool::default_threads(),
        em_linalg::kernels::active_backend().name(),
        digests.join(", "),
        report.samples_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{valid_name, valid_unit};
    use std::collections::HashSet;

    fn benchmark_json() -> Json {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_are_valid_and_unique() {
        let doc = benchmark_json();
        let mut seen = HashSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for name in names(&doc, key) {
                assert!(valid_name(&name), "{key}: bad name {name}");
                assert!(seen.insert(name.clone()), "{name} used twice");
            }
        }
        for key in ["end_to_end", "per_layer"] {
            for m in doc.get(key).and_then(Json::as_array).unwrap() {
                let unit = m.get("unit").and_then(Json::as_str).unwrap();
                assert!(valid_unit(unit), "{key}: bad unit {unit}");
            }
        }
        for w in names(&doc, "workloads") {
            assert!(
                crate::WORKLOADS.contains(&w.as_str()),
                "unknown workload {w}"
            );
        }
    }

    #[test]
    fn every_layer_metric_maps_to_a_workload_and_end_to_end_metric() {
        let doc = benchmark_json();
        let end_to_end: HashSet<String> = names(&doc, "end_to_end").into_iter().collect();
        let per_layer: Vec<String> = names(&doc, "per_layer");
        let layers = config()
            .get("layers")
            .and_then(Json::as_array)
            .expect("config.json layers");
        let mut mapped = HashSet::new();
        for layer in layers {
            let metric = layer.get("metric").and_then(Json::as_str).expect("metric");
            assert!(
                per_layer.iter().any(|m| m == metric),
                "{metric} not in per_layer"
            );
            assert!(layer.get("measured_by").and_then(Json::as_str).is_some());
            let targets = ["moves", "unchanged"].into_iter().flat_map(|key| {
                layer
                    .get(key)
                    .and_then(Json::as_array)
                    .unwrap_or_else(|| panic!("{metric} lacks {key}"))
            });
            for target in targets {
                let w = target
                    .get("workload")
                    .and_then(Json::as_str)
                    .expect("workload");
                let e = target.get("metric").and_then(Json::as_str).expect("metric");
                assert!(
                    crate::WORKLOADS.contains(&w),
                    "{metric}: unknown workload {w}"
                );
                assert!(
                    end_to_end.contains(e),
                    "{metric}: unknown end-to-end metric {e}"
                );
            }
            mapped.insert(metric.to_string());
        }
        for m in &per_layer {
            assert!(
                mapped.contains(m),
                "per-layer metric {m} has no layer mapping"
            );
        }
    }

    #[test]
    fn runs_report_exactly_the_declared_metrics() {
        let doc = benchmark_json();
        let mut end_to_end = names(&doc, "end_to_end");
        end_to_end.sort();
        assert_eq!(end_to_end, crate::END_TO_END);
        let mut per_layer = names(&doc, "per_layer");
        per_layer.sort();
        assert_eq!(per_layer, crate::trace::per_layer_names());
    }

    #[test]
    fn serve_settings_are_consistent() {
        let ladder = nums(&["serve", "ladder_rps"]);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "ladder ascends");
        assert!(ladder.contains(&num(&["serve", "reference_rps"])));
        assert!(num(&["serve", "latency_limit_ms"]) > 0.0);
        assert!(num(&["held_out_seed"]) >= 0.0);
    }
}
