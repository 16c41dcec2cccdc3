//! `rrq-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! rrq-exp list
//! rrq-exp <experiment-id|all> [--p N] [--w N] [--queries N] [--k N]
//!         [--partitions N] [--seed N] [--threads N] [--par-query N]
//!         [--par-pool] [--par-epoch N]
//!         [--threshold-index]
//!         [--loadgen rate=R,dur=S,mode=open|closed[,workers=N,scan=K,explain=N,trace=F]]
//!         [--mutate trace=SEED[,ops=N,checkpoints=N,dim=D]]
//!         [--explain[=prefix]] [--full] [--smoke]
//! ```
//!
//! Defaults run at a laptop-friendly scale (10K × 10K, 5 queries);
//! `--full` switches to the paper's 100K × 100K. `--loadgen` replays a
//! seeded query stream against the worker pool (open or closed loop,
//! coordinated-omission-safe latency) and writes `BENCH_loadgen.json`;
//! it runs after any experiment ids, or on its own. `--explain`
//! captures pruning-provenance documents for the configured workload
//! (`<prefix>_rtk_gir.json`, …; default prefix `EXPLAIN`) — inspect
//! them with `rrq-explain render` / `rrq-explain diff`. The loadgen
//! `explain=N` key samples a document every Nth stream query into
//! `<prefix>_loadgen_q<seq>.json`. `--mutate` replays a seeded
//! insert/delete trace against the epoch-versioned mutable engine,
//! verifies every checkpoint against a rebuild-from-scratch index, and
//! writes `BENCH_update.json` (deterministic counters, gated by
//! `scripts/bench_gate.sh`).

use rrq_bench::{collect, experiments, loadgen, mutate, ExpConfig};
use std::process::ExitCode;

/// Everything `parse_args` extracts besides the experiment ids.
struct Parsed {
    cfg: ExpConfig,
    markdown: bool,
    loadgen_spec: Option<String>,
    /// `--mutate trace=SEED,...`: replay a seeded update trace and
    /// write `BENCH_update.json`.
    mutate_spec: Option<String>,
    /// `--explain[=prefix]`: capture explain documents under this file
    /// prefix.
    explain: Option<String>,
}

fn parse_args(args: &[String]) -> Result<(Vec<String>, Parsed), String> {
    let mut cfg = ExpConfig::default();
    let mut markdown = false;
    let mut loadgen_spec = None;
    let mut mutate_spec = None;
    let mut explain = None;
    let mut ids = Vec::new();
    let mut it = args.iter().peekable();
    let next_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<usize, String> {
        it.next()
            .ok_or_else(|| format!("missing value for {flag}"))?
            .parse::<usize>()
            .map_err(|e| format!("bad value for {flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => {
                cfg = ExpConfig {
                    queries: cfg.queries,
                    k: cfg.k,
                    partitions: cfg.partitions,
                    seed: cfg.seed,
                    ..ExpConfig::full()
                }
            }
            "--smoke" => cfg = ExpConfig::smoke(),
            "--md" => markdown = true,
            "--p" => cfg.p_card = next_value(&mut it, "--p")?,
            "--w" => cfg.w_card = next_value(&mut it, "--w")?,
            "--queries" => cfg.queries = next_value(&mut it, "--queries")?,
            "--k" => cfg.k = next_value(&mut it, "--k")?,
            "--partitions" => cfg.partitions = next_value(&mut it, "--partitions")?,
            "--seed" => cfg.seed = next_value(&mut it, "--seed")? as u64,
            "--threads" => {
                cfg.threads = next_value(&mut it, "--threads")?.max(1);
            }
            "--par-query" => {
                cfg.par_query = next_value(&mut it, "--par-query")?.max(1);
            }
            "--par-pool" => cfg.par_pool = true,
            "--threshold-index" => cfg.threshold_index = true,
            "--par-epoch" => {
                // `0` keeps worker-local bounds (ExpConfig::par_epoch's
                // documented default), so it is passed through rather
                // than clamped: clamping to 1 would silently turn "epoch
                // mode off" into the most aggressive epoch setting.
                cfg.par_epoch = next_value(&mut it, "--par-epoch")?;
            }
            "--loadgen" => {
                loadgen_spec = Some(
                    it.next()
                        .ok_or_else(|| "missing value for --loadgen".to_string())?
                        .clone(),
                );
            }
            "--mutate" => {
                mutate_spec = Some(
                    it.next()
                        .ok_or_else(|| "missing value for --mutate".to_string())?
                        .clone(),
                );
            }
            "--explain" => explain = Some("EXPLAIN".to_string()),
            flag if flag.starts_with("--explain=") => {
                let prefix = &flag["--explain=".len()..];
                if prefix.is_empty() {
                    return Err("empty prefix for --explain=".to_string());
                }
                explain = Some(prefix.to_string());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id => ids.push(id.to_string()),
        }
    }
    Ok((
        ids,
        Parsed {
            cfg,
            markdown,
            loadgen_spec,
            mutate_spec,
            explain,
        },
    ))
}

/// Captures explain documents for the configured workload and writes
/// them as `<prefix>_<suffix>.json`. Returns false on failure.
fn run_explain(cfg: &ExpConfig, prefix: &str) -> bool {
    let docs = match rrq_bench::explain::capture(cfg) {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("error: explain capture failed: {e}");
            return false;
        }
    };
    for c in &docs {
        let path = format!("{prefix}_{}.json", c.suffix);
        match std::fs::write(&path, &c.json) {
            Ok(()) => eprintln!("wrote {path} ({} bytes)", c.json.len()),
            Err(err) => {
                eprintln!("error: could not write {path}: {err}");
                return false;
            }
        }
    }
    true
}

/// Runs the load generator and writes `BENCH_loadgen.json` (and the
/// optional Perfetto trace, and any `explain=N` sampled documents under
/// `explain_prefix`). Returns false on failure.
fn run_loadgen(cfg: &ExpConfig, spec: &str, markdown: bool, explain_prefix: &str) -> bool {
    let lg = match loadgen::LoadgenConfig::parse(spec) {
        Ok(lg) => lg,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    eprintln!(
        "running loadgen — {} loop, {} q/s for {}s x{} ({} workers)",
        match lg.mode {
            loadgen::LoadMode::Open => "open",
            loadgen::LoadMode::Closed => "closed",
        },
        lg.rate,
        lg.dur_s,
        lg.scan,
        lg.workers
    );
    let start = std::time::Instant::now();
    let report = match loadgen::run(cfg, &lg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: loadgen failed: {e}");
            return false;
        }
    };
    if markdown {
        println!("{}", report.table.to_markdown());
    } else {
        println!("{}", report.table);
    }
    let json = report.metrics.to_json().to_pretty();
    if let Err(err) = rrq_obs::json::parse(&json) {
        eprintln!("error: exporter emitted invalid JSON for BENCH_loadgen.json: {err:?}");
        return false;
    }
    match std::fs::write("BENCH_loadgen.json", &json) {
        Ok(()) => eprintln!(
            "wrote BENCH_loadgen.json ({} runs, {} bytes)",
            report.metrics.runs.len(),
            json.len()
        ),
        Err(err) => {
            eprintln!("error: could not write BENCH_loadgen.json: {err}");
            return false;
        }
    }
    if let (Some(path), Some(trace)) = (&lg.trace, &report.trace_json) {
        match std::fs::write(path, trace) {
            Ok(()) => eprintln!("wrote {path} ({} bytes)", trace.len()),
            Err(err) => eprintln!("warning: could not write {path}: {err}"),
        }
    }
    for (seq, json) in &report.explain_docs {
        let path = format!("{explain_prefix}_loadgen_q{seq}.json");
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {path} ({} bytes)", json.len()),
            Err(err) => {
                eprintln!("error: could not write {path}: {err}");
                return false;
            }
        }
    }
    eprintln!("loadgen finished in {:.1}s", start.elapsed().as_secs_f64());
    eprintln!();
    true
}

/// Replays a seeded update trace (mutable engine vs rebuild at every
/// checkpoint) and writes `BENCH_update.json`. Returns false on
/// failure — including any mutable-vs-rebuild divergence.
fn run_mutate(cfg: &ExpConfig, spec: &str, markdown: bool) -> bool {
    let mc = match mutate::MutateConfig::parse(spec) {
        Ok(mc) => mc,
        Err(e) => {
            eprintln!("error: {e}");
            return false;
        }
    };
    eprintln!(
        "running update trace — seed {}, {} ops across {} checkpoints (dim {})",
        mc.trace_seed, mc.ops, mc.checkpoints, mc.dim
    );
    let start = std::time::Instant::now();
    let report = match mutate::run(cfg, &mc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: update trace failed: {e}");
            return false;
        }
    };
    if markdown {
        println!("{}", report.table.to_markdown());
    } else {
        println!("{}", report.table);
    }
    let json = report.metrics.to_json().to_pretty();
    if let Err(err) = rrq_obs::json::parse(&json) {
        eprintln!("error: exporter emitted invalid JSON for BENCH_update.json: {err:?}");
        return false;
    }
    match std::fs::write("BENCH_update.json", &json) {
        Ok(()) => eprintln!(
            "wrote BENCH_update.json ({} runs, {} bytes)",
            report.metrics.runs.len(),
            json.len()
        ),
        Err(err) => {
            eprintln!("error: could not write BENCH_update.json: {err}");
            return false;
        }
    }
    eprintln!(
        "update trace finished in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    eprintln!();
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, parsed) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Parsed {
        cfg,
        markdown,
        loadgen_spec,
        mutate_spec,
        explain,
    } = parsed;
    let explain_prefix = explain.as_deref().unwrap_or("EXPLAIN");
    // `--loadgen` / `--mutate` / `--explain` alone are complete
    // invocations; `list` still wins.
    if ids.is_empty() && (loadgen_spec.is_some() || mutate_spec.is_some() || explain.is_some()) {
        let mut ok = true;
        if let Some(spec) = &loadgen_spec {
            ok = run_loadgen(&cfg, spec, markdown, explain_prefix);
        }
        if ok {
            if let Some(spec) = &mutate_spec {
                ok = run_mutate(&cfg, spec, markdown);
            }
        }
        if ok && explain.is_some() {
            ok = run_explain(&cfg, explain_prefix);
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if ids.is_empty() || ids[0] == "list" {
        println!("available experiments:");
        for e in experiments::registry() {
            println!("  {:<10} {}", e.id, e.description);
        }
        println!("  {:<10} run every experiment", "all");
        println!();
        println!(
            "flags: --p N --w N --queries N --k N --partitions N --seed N --threads N \
             --par-query N --par-pool --par-epoch N --threshold-index \
             --loadgen rate=R,dur=S,mode=open|closed[,workers=N,scan=K,explain=N,trace=F] \
             --mutate trace=SEED[,ops=N,checkpoints=N,dim=D] \
             --explain[=prefix] --full --smoke --md"
        );
        return ExitCode::SUCCESS;
    }
    let to_run: Vec<experiments::Experiment> = if ids.iter().any(|i| i == "all") {
        experiments::registry()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match experiments::find(id) {
                Some(e) => out.push(e),
                None => {
                    eprintln!("unknown experiment `{id}` (try `rrq-exp list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    let par_note = if cfg.par_query <= 1 {
        String::new()
    } else {
        let mode = if cfg.par_epoch > 0 {
            format!("epoch bounds every {}", cfg.par_epoch)
        } else {
            "deterministic".to_string()
        };
        let substrate = if cfg.par_pool {
            ", persistent pool"
        } else {
            ", pool per query"
        };
        format!(" ({mode}{substrate})")
    };
    let threshold_note = if cfg.threshold_index {
        ", threshold index"
    } else {
        ""
    };
    println!(
        "configuration: |P| = {}, |W| = {}, queries = {}, k = {}, n = {}, seed = {}, threads = {}, par-query = {}{}{}",
        cfg.p_card,
        cfg.w_card,
        cfg.queries,
        cfg.k,
        cfg.partitions,
        cfg.seed,
        cfg.threads,
        cfg.par_query,
        par_note,
        threshold_note
    );
    println!();
    for e in to_run {
        eprintln!("running {} — {}", e.id, e.description);
        let start = std::time::Instant::now();
        collect::begin(e.id, &cfg);
        let tables = (e.run)(&cfg);
        for t in tables {
            if markdown {
                println!("{}", t.to_markdown());
            } else {
                println!("{t}");
            }
        }
        if let Some(metrics) = collect::finish() {
            let path = format!("BENCH_{}.json", e.id);
            let json = metrics.to_json().to_pretty();
            if let Err(err) = rrq_obs::json::parse(&json) {
                eprintln!("error: exporter emitted invalid JSON for {path}: {err:?}");
                return ExitCode::FAILURE;
            }
            match std::fs::write(&path, &json) {
                Ok(()) => eprintln!(
                    "wrote {path} ({} timed runs, {} bytes)",
                    metrics.runs.len(),
                    json.len()
                ),
                Err(err) => eprintln!("warning: could not write {path}: {err}"),
            }
        }
        eprintln!("{} finished in {:.1}s", e.id, start.elapsed().as_secs_f64());
        eprintln!();
    }
    if let Some(spec) = &loadgen_spec {
        if !run_loadgen(&cfg, spec, markdown, explain_prefix) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(spec) = &mutate_spec {
        if !run_mutate(&cfg, spec, markdown) {
            return ExitCode::FAILURE;
        }
    }
    if explain.is_some() && !run_explain(&cfg, explain_prefix) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
