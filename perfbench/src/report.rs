//! The metrics a run reports and the JSON lines it prints.

use std::fmt::Write as _;

use crate::stats::percentile;

/// The gated end-to-end metrics every workload reports, with units. Each
/// workload documents what its headline operation is (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, with units. A workload reports 0
/// for a layer call it does not make.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.crawl_s", "s"),
    ("graph.extract_s", "s"),
    ("graph.source_edges", "count"),
    ("graph.shard_build_s", "s"),
    ("graph.shard_open_s", "s"),
    ("graph.shard_bytes", "bytes"),
    ("core.kappa_s", "s"),
    ("core.kappa_iters", "count"),
    ("core.throttle_s", "s"),
    ("core.sr_solve_s", "s"),
    ("core.sr_iters", "count"),
    ("core.pagerank_iters", "count"),
    ("core.sweep_ms", "ms"),
    ("core.sweep_edges_per_s", "1/s"),
    ("core.sweep_bytes", "bytes"),
    ("core.ooc_cold_sweep_ms", "ms"),
    ("core.ooc_sweep_ms", "ms"),
    ("core.ooc_restream_frac", "ratio"),
    ("core.sr_solve_1t_s", "s"),
    ("core.pagerank_1t_s", "s"),
    ("core.residual_l1", "l1"),
    ("core.top_k_ms", "ms"),
    ("core.approx_query_ms", "ms"),
    ("core.exact_solve_ms", "ms"),
    ("core.panel_solve_ms", "ms"),
    ("par.fork_join_us", "us"),
    ("par.par_calls", "count"),
    ("par.tasks_spawned", "count"),
    ("par.busy_s", "s"),
    ("par.prefetched_bytes", "bytes"),
    ("serve.seed_s", "s"),
    ("serve.engine_step_ms", "ms"),
    ("serve.stats_rtt_us", "us"),
    ("serve.exact_per_panel", "ratio"),
    ("serve.reader_stalls", "count"),
    ("serve.late_ms", "ms"),
    ("self.bench_s", "s"),
    ("self.gen_s", "s"),
    ("self.graph_s", "s"),
    ("self.core_s", "s"),
    ("self.serve_s", "s"),
    ("trace.overhead_ms", "ms"),
];

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed; a wrong answer counts as failed.
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The gated metrics of [`END_TO_END`].
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end metrics, by their specific names.
    pub detail: Vec<Metric>,
    /// Measured per-layer metrics (traced run only); see [`PER_LAYER`].
    pub layers: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: output check failed: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        let unit = unit_of(END_TO_END, name);
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Reports the nearest-rank `p`-th percentile of `samples` (ms) as a
    /// detail metric, or fails the run when fewer than ten samples lie
    /// beyond it.
    pub fn percentile_ms(&mut self, name: &str, samples: &[f64], p: u32) {
        match percentile(samples, p) {
            Some(v) => self.detail(name, v, "ms"),
            None => self.check(
                &format!(
                    "{name} has 10 samples beyond it ({} samples)",
                    samples.len()
                ),
                false,
            ),
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = unit_of(PER_LAYER, name);
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Every check held, operations ran and none failed, every end-to-end
    /// metric was measured, and every metric is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && self.attempted > 0
            && self.failed == 0
            && END_TO_END
                .iter()
                .all(|(name, _)| self.end_to_end.iter().any(|m| m.name == *name))
            && self
                .end_to_end
                .iter()
                .chain(&self.detail)
                .chain(&self.layers)
                .all(|m| m.value.is_finite())
    }

    /// The gated metrics of this run: [`END_TO_END`] untraced, or
    /// [`PER_LAYER`] traced (0 for layers the workload does not call).
    pub fn gated(&self, traced: bool) -> Vec<Metric> {
        let (names, measured) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        names
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.into(),
                value: measured
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
                unit,
            })
            .collect()
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite float as JSON with all its digits; non-finite values (which
/// make the run incorrect) print as 0 to keep the line parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        s
    } else {
        "0".into()
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.gated(traced))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_gated_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.check("ok", true);
        o.e2e("p50_ms", 1.25);
        assert!(!o.correct(), "an end-to-end metric is missing");
        for name in ["setup_s", "peak_rss_mb", "ops_per_s"] {
            o.e2e(name, 2.0);
        }
        let line = result_line(&o, false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0"#));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(r#""{name}": {{"value": "#)));
            assert!(line.contains(&format!(r#""unit": "{unit}""#)));
        }
        assert!(line.contains(r#""p50_ms": {"value": 1.25, "unit": "ms"}"#));
        o.failed = 1;
        assert!(!o.correct());
    }

    #[test]
    fn names_and_units_stay_within_the_contract() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
