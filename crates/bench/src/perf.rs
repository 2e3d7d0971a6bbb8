//! `reproduce bench`: the kernel performance baseline.
//!
//! One row per algorithm × grid size: *measured* wall-clock time and
//! throughput of the native Rust kernels on this machine, plus the
//! *simulated* time/energy of the same run under the default power cap.
//! The committed `BENCH_<date>.json` snapshots give the raw-speed perf
//! pass (ROADMAP: "bench first, then attack") a visible before/after,
//! and `cargo xtask analyze` supplies the matching worklist.

use std::time::Instant;

use powersim::trace::{Journal, Scope};
use powersim::{CpuSpec, Watts};
use vizalgo::{Algorithm, Backend, PrimitiveReport};
use vizmesh::json::Value;
use vizmesh::DataSet;
use vizpower::study::{self, StudyContext, PAPER_CAPS};

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Registry display name ("Contour", "Spherical Clip", ...).
    pub algorithm: &'static str,
    /// Execution backend the row ran on (`traditional` or `dpp`).
    pub backend: &'static str,
    /// Backend-tagged spec fingerprint of the executed plan
    /// (`AlgorithmSpec::fingerprint_with`).
    pub fingerprint: u64,
    /// Grid edge length (the dataset is `size`³ cells).
    pub size: usize,
    pub input_cells: usize,
    /// Measured wall-clock seconds of `spec.build` + `filter.execute`.
    pub wall_seconds: f64,
    /// `input_cells / wall_seconds`.
    pub cells_per_second: f64,
    /// Output geometry cells, for filters that extract geometry.
    pub output_cells: Option<usize>,
    /// `output_cells / wall_seconds` where the output cells are
    /// triangles (contour, slice).
    pub triangles_per_second: Option<f64>,
    /// Simulated seconds under the default cap (the power model's view
    /// of the same run on the paper's Broadwell node).
    pub sim_seconds: f64,
    /// Simulated package energy under the default cap.
    pub sim_joules: f64,
    /// Simulated instructions per reference cycle under the default cap
    /// — the counter the Bethel-style backend comparison contrasts
    /// between formulations.
    pub sim_ipc: f64,
    /// Simulated LLC miss rate (misses/references) under the default cap.
    pub sim_llc_miss_rate: f64,
}

/// Execute every algorithm at every size, timing the native kernels and
/// simulating the default-cap execution. Datasets come from `ctx`'s
/// cache so dataset synthesis (the hydro run) is not timed; the filter
/// build + execute is re-run fresh here, not taken from the run cache.
///
/// When `ctx`'s journal is enabled, each (algorithm, size) row emits a
/// [`Scope::Bench`] span (`bench:<name>:<size>`) whose args carry the
/// measured wall time, so bench runs are observable in the same journal
/// and chrome trace as everything else (see docs/OBSERVABILITY.md).
pub fn bench(ctx: &mut StudyContext, sizes: &[usize]) -> Vec<BenchRow> {
    bench_with(ctx, sizes, &[Backend::Traditional], None)
}

/// [`bench()`] over an explicit backend list and (optionally) an algorithm
/// subset: the traditional-vs-DPP comparison driver. Backends that have
/// no formulation of an algorithm ([`Backend::supports`]) are skipped,
/// so `--backend both` still yields exactly one traditional row for the
/// four DPP-less algorithms. DPP rows additionally journal one schema-v6
/// [`Scope::Primitive`] span per primitive op the execution invoked.
pub fn bench_with(
    ctx: &mut StudyContext,
    sizes: &[usize],
    backends: &[Backend],
    algorithms: Option<&[Algorithm]>,
) -> Vec<BenchRow> {
    let cpu = CpuSpec::broadwell_e5_2695v4();
    let default_cap = [PAPER_CAPS[0]];
    let mut rows = Vec::with_capacity(sizes.len() * Algorithm::ALL.len() * backends.len());
    for &size in sizes {
        let dataset = ctx.dataset(size);
        for algorithm in Algorithm::ALL {
            if let Some(subset) = algorithms {
                if !subset.contains(&algorithm) {
                    continue;
                }
            }
            for &backend in backends {
                if !backend.supports(algorithm) {
                    continue;
                }
                rows.push(bench_row(
                    ctx,
                    &dataset,
                    algorithm,
                    backend,
                    size,
                    &default_cap,
                    &cpu,
                ));
            }
        }
    }
    rows
}

/// Time + simulate one (algorithm, backend, size) row.
fn bench_row(
    ctx: &mut StudyContext,
    dataset: &DataSet,
    algorithm: Algorithm,
    backend: Backend,
    size: usize,
    default_cap: &[Watts],
    cpu: &CpuSpec,
) -> BenchRow {
    let spec = ctx.config().spec(algorithm);
    let fingerprint = spec.fingerprint_with(backend);
    let t0 = ctx.journal.now();
    let start = Instant::now();
    let (run, out) = study::native_run_with(spec, backend, size, dataset);
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    eprintln!(
        "bench: {:<20} {:<11} {size:>4}  {wall_seconds:>10.4} s",
        algorithm.name(),
        backend.name()
    );
    let input_cells = run.input_cells;
    let output_cells = out.dataset.as_ref().map(|d| d.num_cells());
    let triangles_per_second = match algorithm {
        Algorithm::Contour | Algorithm::Slice => output_cells.map(|n| n as f64 / wall_seconds),
        _ => None,
    };
    let sweep = study::sweep(&run, default_cap, cpu);
    let (sim_seconds, sim_joules, sim_ipc, sim_llc_miss_rate) = sweep
        .baseline()
        .map(|r| {
            (
                r.seconds,
                r.energy_joules.value(),
                r.avg_ipc,
                r.avg_llc_miss_rate,
            )
        })
        .unwrap_or((0.0, 0.0, 0.0, 0.0));
    if ctx.journal.is_enabled() {
        let name = match backend {
            Backend::Traditional => format!("bench:{}:{size}", algorithm.name()),
            Backend::Dpp => format!("bench:dpp:{}:{size}", algorithm.name()),
        };
        ctx.journal.push_span(
            Scope::Bench,
            name,
            t0,
            None,
            vec![
                ("input_cells", input_cells as f64),
                ("wall_seconds", wall_seconds),
                ("sim_seconds", sim_seconds),
                ("spec_fp", fingerprint as f64),
            ],
        );
        for r in &out.primitives {
            journal_primitive(&mut ctx.journal, r);
        }
    }
    BenchRow {
        algorithm: algorithm.name(),
        backend: backend.name(),
        fingerprint,
        size,
        input_cells,
        wall_seconds,
        cells_per_second: input_cells as f64 / wall_seconds,
        output_cells,
        triangles_per_second,
        sim_seconds,
        sim_joules,
        sim_ipc,
        sim_llc_miss_rate,
    }
}

/// One zero-width schema-v6 `Primitive` span carrying a DPP op's
/// element/byte/flop counters.
fn journal_primitive(journal: &mut Journal, r: &PrimitiveReport) {
    let t = journal.now();
    journal.push_span(
        Scope::Primitive,
        format!("primitive:{}", r.op.name()),
        t,
        None,
        vec![
            ("invocations", r.counters.invocations as f64),
            ("elements", r.counters.elements as f64),
            ("bytes_read", r.counters.bytes_read as f64),
            ("bytes_written", r.counters.bytes_written as f64),
            ("flops", r.counters.flops as f64),
        ],
    );
}

/// Human-readable table for stdout.
pub fn render_table(rows: &[BenchRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<20} {:<11} {:>5} {:>12} {:>10} {:>12} {:>12} {:>9} {:>9} {:>7} {:>7}\n",
        "algorithm",
        "backend",
        "size",
        "cells",
        "wall s",
        "cells/s",
        "tri/s",
        "sim s",
        "sim J",
        "IPC",
        "LLC"
    ));
    for r in rows {
        let tri = r
            .triangles_per_second
            .map_or("-".to_string(), |t| format!("{t:.3e}"));
        s.push_str(&format!(
            "{:<20} {:<11} {:>5} {:>12} {:>10.4} {:>12.3e} {:>12} {:>9.3} {:>9.1} {:>7.3} {:>7.4}\n",
            r.algorithm,
            r.backend,
            r.size,
            r.input_cells,
            r.wall_seconds,
            r.cells_per_second,
            tri,
            r.sim_seconds,
            r.sim_joules,
            r.sim_ipc,
            r.sim_llc_miss_rate
        ));
    }
    s
}

/// Machine-readable report (schema 2). Schema 1 → 2 added the per-row
/// `backend`, `sim_ipc`, and `sim_llc_miss_rate` fields for the
/// traditional-vs-DPP comparison snapshots.
pub fn to_json(rows: &[BenchRow], fidelity: &str, provenance: &str) -> String {
    let row = |r: &BenchRow| {
        Value::object([
            ("algorithm", r.algorithm.into()),
            ("backend", r.backend.into()),
            ("fingerprint", format!("{:016x}", r.fingerprint).into()),
            ("size", r.size.into()),
            ("input_cells", r.input_cells.into()),
            ("wall_seconds", r.wall_seconds.into()),
            ("cells_per_second", r.cells_per_second.into()),
            ("output_cells", r.output_cells.into()),
            ("triangles_per_second", r.triangles_per_second.into()),
            ("sim_seconds", r.sim_seconds.into()),
            ("sim_joules", r.sim_joules.into()),
            ("sim_ipc", r.sim_ipc.into()),
            ("sim_llc_miss_rate", r.sim_llc_miss_rate.into()),
        ])
    };
    let report = Value::object([
        ("schema", 2u64.into()),
        ("tool", "reproduce-bench".into()),
        ("fidelity", fidelity.into()),
        ("default_cap_watts", PAPER_CAPS[0].value().into()),
        ("provenance", provenance.into()),
        ("rows", Value::Array(rows.iter().map(row).collect())),
    ]);
    report.pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizpower::study::StudyConfig;

    #[test]
    fn bench_produces_one_row_per_algorithm_and_size() {
        let mut ctx = StudyContext::new(StudyConfig::quick());
        let rows = bench(&mut ctx, &[8]);
        assert_eq!(rows.len(), Algorithm::ALL.len());
        for r in &rows {
            assert!(r.wall_seconds > 0.0);
            assert!(r.cells_per_second > 0.0);
            assert!(r.sim_seconds > 0.0, "{} simulated no time", r.algorithm);
            assert!(r.sim_joules > 0.0, "{} simulated no energy", r.algorithm);
        }
        let contour = rows.iter().find(|r| r.algorithm == "Contour").unwrap();
        assert!(contour.triangles_per_second.is_some());
        let ray = rows.iter().find(|r| r.algorithm == "Ray Tracing");
        if let Some(ray) = ray {
            assert!(ray.triangles_per_second.is_none());
        }
    }

    #[test]
    fn bench_journals_one_span_per_row() {
        use powersim::trace::Event;
        let mut ctx = StudyContext::new(StudyConfig::quick());
        ctx.enable_journal(1 << 14);
        let rows = bench(&mut ctx, &[8]);
        let spans: Vec<&str> = ctx
            .journal
            .events()
            .filter_map(|e| match e {
                Event::Span(s) if s.scope == Scope::Bench => Some(s.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), rows.len(), "one Bench span per row");
        assert!(spans.contains(&"bench:Contour:8"));
    }

    #[test]
    fn json_report_is_shaped_and_complete() {
        let mut ctx = StudyContext::new(StudyConfig::quick());
        let rows = bench(&mut ctx, &[8]);
        let json = to_json(&rows, "quick", "test");
        assert!(json.starts_with("{\n  \"schema\": 2,\n"));
        assert_eq!(json.matches("\"algorithm\":").count(), rows.len());
        assert_eq!(
            json.matches("\"backend\": \"traditional\"").count(),
            rows.len()
        );
        assert!(json.contains("\"sim_ipc\":"));
        assert!(json.contains("\"sim_llc_miss_rate\":"));
        assert!(json.contains("\"triangles_per_second\": null"));
    }

    #[test]
    fn bench_with_dpp_adds_backend_rows_and_primitive_spans() {
        let mut ctx = StudyContext::new(StudyConfig::quick());
        ctx.enable_journal(1 << 14);
        let rows = bench_with(
            &mut ctx,
            &[8],
            &[Backend::Traditional, Backend::Dpp],
            Some(&[Algorithm::Contour, Algorithm::RayTracing]),
        );
        // Contour has both backends; ray tracing only traditional.
        assert_eq!(rows.len(), 3);
        let dpp: Vec<&BenchRow> = rows.iter().filter(|r| r.backend == "dpp").collect();
        assert_eq!(dpp.len(), 1);
        assert_eq!(dpp[0].algorithm, "Contour");
        assert!(dpp[0].sim_ipc > 0.0, "dpp row carries simulated IPC");
        assert!(dpp[0].sim_llc_miss_rate >= 0.0);
        let trad = rows
            .iter()
            .find(|r| r.backend == "traditional" && r.algorithm == "Contour");
        assert_ne!(
            dpp[0].fingerprint,
            trad.unwrap().fingerprint,
            "backend-tagged fingerprints differ"
        );
        let jsonl = ctx.journal.to_jsonl();
        assert!(jsonl.contains("bench:dpp:Contour:8"), "dpp bench span");
        assert!(
            jsonl.contains("bench:Contour:8"),
            "traditional span keeps its name"
        );
        assert!(jsonl.contains("primitive:map"), "primitive spans journaled");
    }
}
