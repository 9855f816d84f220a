//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # everything, scaled-down defaults
//! repro table1              # Table I   (rounds + closed forms)
//! repro table2 [--full] [--f64] [--no-cache]
//! repro table3 [--count K] [--n SIZE]
//! repro fig3 | fig4 | fig5 | fig6
//! repro smallperm           # the single-DMM [9] experiment
//! repro ablation            # cache / write-policy / dispatch / coloring ablations
//! repro sweep [--n N]       # latency and width sweeps vs the closed forms
//! repro apps [--n N]        # which application permutations need scheduling
//! repro generations         # crossover size across GPU-generation presets
//! repro heatmap [--n N]     # access-pattern heatmaps (trace support)
//! repro native [--full] [--json] [--plan-threads T]
//!                           # wall-clock CPU kernel comparison
//! repro backends [--full] [--json]
//!                           # backend registry: native vs sweep-IR interpreter
//! repro computed [--full] [--json]
//!                           # computed-index kernels vs gather-map loads
//! repro plan build [--n N] [--family F] [--seed S] [--width W]
//! repro plan save  --dir DIR [--n N] [--family F] [--seed S] [--width W]
//! repro plan load  --dir DIR [--n N] [--family F] [--seed S] [--width W] [--assert-cold]
//! repro plan stats --dir DIR
//! ```
//!
//! `--full` uses the paper's sizes (256K–4M); expect minutes of simulation.
//! `--csv DIR` additionally writes each table as `DIR/<table>.csv`.
//! `--json` (native only) writes `results/BENCH_native.json` with
//! elements/sec per kernel, per size, per family, plus the per-sweep and
//! plan-compiler rows. The engine paths above the kernels are measured
//! end to end by `bench-e2e`, not by `repro`.
//! `--plan-threads T` (native only) sets the thread budget of the parallel
//! plan-compiler measurement, emitting `plan_build_1t` / `plan_build_{T}t`
//! rows (default 4; `0` skips it). The two builds are asserted
//! byte-identical through the codec before any time is reported.
//! `--json` (backends) merges `backend_native` / `backend_interp` rows
//! into `results/BENCH_native.json`, replacing any stale backend rows and
//! leaving every other row untouched.

use hmm_bench::experiments::{
    ablation, applications, figures, generations, smallperm, sweep, table1, table2, table3,
};
use hmm_bench::native_experiments;
use hmm_machine::ElemWidth;
use hmm_perm::families;
use std::process::ExitCode;

struct Args {
    full: bool,
    f64_elems: bool,
    no_cache: bool,
    json: bool,
    plan_threads: Option<usize>,
    count: Option<usize>,
    n: Option<usize>,
    csv_dir: Option<std::path::PathBuf>,
    dir: Option<std::path::PathBuf>,
    family: Option<String>,
    seed: Option<u64>,
    width: Option<usize>,
    assert_cold: bool,
}

/// Write a CSV file into the `--csv` directory, if one was given.
fn maybe_csv(args: &Args, name: &str, table: &hmm_bench::tables::TextTable) {
    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, table.to_csv()) {
            Ok(()) => println!("(wrote {})", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        full: false,
        f64_elems: false,
        no_cache: false,
        json: false,
        plan_threads: None,
        count: None,
        n: None,
        csv_dir: None,
        dir: None,
        family: None,
        seed: None,
        width: None,
        assert_cold: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => out.full = true,
            "--f64" => out.f64_elems = true,
            "--no-cache" => out.no_cache = true,
            "--json" => out.json = true,
            "--plan-threads" => {
                out.plan_threads = Some(
                    it.next()
                        .ok_or("--plan-threads needs a thread count")?
                        .parse()
                        .map_err(|e| format!("--plan-threads: {e}"))?,
                )
            }
            "--count" => {
                out.count = Some(
                    it.next()
                        .ok_or("--count needs a value")?
                        .parse()
                        .map_err(|e| format!("--count: {e}"))?,
                )
            }
            "--n" => {
                out.n = Some(
                    it.next()
                        .ok_or("--n needs a value")?
                        .parse()
                        .map_err(|e| format!("--n: {e}"))?,
                )
            }
            "--csv" => {
                out.csv_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--csv needs a directory")?,
                ))
            }
            "--dir" => {
                out.dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--dir needs a directory")?,
                ))
            }
            "--family" => out.family = Some(it.next().ok_or("--family needs a name")?.clone()),
            "--seed" => {
                out.seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--width" => {
                out.width = Some(
                    it.next()
                        .ok_or("--width needs a value")?
                        .parse()
                        .map_err(|e| format!("--width: {e}"))?,
                )
            }
            "--assert-cold" => out.assert_cold = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, r)) => (c.clone(), r.to_vec()),
        None => {
            eprintln!(
                "usage: repro <all|table1|table2|table3|fig3|fig4|fig5|fig6|smallperm|ablation|\
                 sweep|apps|heatmap|native|backends|computed|structured|plan> [--full] [--f64] [--no-cache] [--json] \
                 [--count K] [--n N] [--csv DIR] [--plan-threads T]\n       \
                 repro plan <build|save|load|stats> [--dir DIR] [--n N] [--family F] \
                 [--seed S] [--width W] [--assert-cold]"
            );
            return ExitCode::FAILURE;
        }
    };
    // `plan` takes an action word before its flags: fold it into the
    // command so `run` dispatches on `plan-build` etc.
    let (cmd, rest) = if cmd == "plan" {
        match rest.split_first() {
            Some((a, r)) => (format!("plan-{a}"), r.to_vec()),
            None => {
                eprintln!("usage: repro plan <build|save|load|stats> [flags]");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (cmd, rest)
    };
    let args = match parse_args(&rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cmd, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        "all" => {
            for c in [
                "table1",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "smallperm",
                "table2",
                "table3",
                "ablation",
                "sweep",
                "apps",
                "generations",
                "heatmap",
                "native",
            ] {
                run(c, args)?;
                println!();
            }
        }
        "table1" => {
            println!("=== Table I: rounds and running time (n = 64K, w = 32, l = 512) ===\n");
            let rows = table1::measure(1 << 16, 32, 512)?;
            print!("{}", table1::render(&rows));
            maybe_csv(args, "table1", &table1::table(&rows));
            println!("\n(All measured counts/time match the paper's Table I and closed forms;");
            println!(" conventional rows use bit-reversal, i.e. distribution γ_w = w.)");
        }
        "table2" => {
            let elem = if args.f64_elems {
                ElemWidth::F64
            } else {
                ElemWidth::F32
            };
            let mut cfg = if args.full {
                table2::Table2Config::paper(elem)
            } else {
                table2::Table2Config::quick(elem)
            };
            cfg.cached = !args.no_cache;
            println!(
                "=== Table II ({}): simulated time units, {} ===\n",
                if args.f64_elems {
                    "b: 64-bit"
                } else {
                    "a: 32-bit"
                },
                if cfg.cached {
                    "GTX-680-like config (L2 model on)"
                } else {
                    "pure HMM (no cache)"
                }
            );
            let data = table2::run(&cfg)?;
            print!("{}", table2::render(&data));
            let suffix = if args.f64_elems { "f64" } else { "f32" };
            for (name, t) in table2::tables(&data) {
                maybe_csv(
                    args,
                    &format!("table2_{suffix}_{}", name.replace('-', "_")),
                    &t,
                );
            }
            let violations = table2::check_shape(&data);
            if violations.is_empty() {
                println!("shape check: PASS (scheduled constant per size; conventional wins on");
                println!(
                    "identical/shuffle; scheduled wins on random/bit-reversal/transpose at the"
                );
                println!("largest size)");
            } else {
                println!("shape check: FAIL");
                for v in violations {
                    println!("  - {v}");
                }
            }
        }
        "table3" => {
            let mut cfg = table3::Table3Config::quick();
            if args.full {
                cfg.count = 1000;
                cfg.n = 1 << 22;
            }
            if let Some(c) = args.count {
                cfg.count = c;
            }
            if let Some(n) = args.n {
                cfg.n = n;
            }
            println!(
                "=== Table III: {} random permutations of n = {} (f64) ===\n",
                cfg.count, cfg.n
            );
            let data = table3::run(&cfg)?;
            print!("{}", table3::render(&data));
            maybe_csv(args, "table3", &table3::table(&data));
        }
        "fig3" => print!("{}", figures::render_fig3(5)),
        "fig4" => print!("{}", figures::render_fig4(4)),
        "fig5" => print!("{}", figures::render_fig5()),
        "fig6" => {
            let p = families::random(16, 2013);
            print!("{}", figures::render_fig6(&p, 4)?);
        }
        "smallperm" => {
            println!("=== Single-DMM permutation of 1024 elements (w = 32), cf. [9] ===\n");
            let rows = smallperm::run(1024, 32)?;
            print!("{}", smallperm::render(&rows));
            let speedup = smallperm::random_speedup(1024, 32, 20)?;
            println!("\nrandom-permutation speedup (20 samples): {speedup:.2}x (paper: 1.5x)");
        }
        "ablation" => {
            println!("=== Ablation 1: L2 cache model on/off (bit-reversal) ===\n");
            let sizes: Vec<usize> = if args.full {
                vec![1 << 16, 1 << 18, 1 << 20, 1 << 22]
            } else {
                vec![1 << 12, 1 << 14, 1 << 16, 1 << 18]
            };
            print!("{}", ablation::cache_ablation(&sizes)?);
            println!("\n=== Ablation 5: cache write policy (bit-reversal) ===\n");
            print!("{}", ablation::write_policy_ablation(&sizes)?);
            println!("\n=== Ablation 2: shared dispatch rule (n = 64K) ===\n");
            print!("{}", ablation::shared_dispatch_ablation(1 << 16)?);
            println!("\n=== Ablation 3: coloring strategy build time (n = 64K, w = 32) ===\n");
            print!("{}", ablation::coloring_ablation(1 << 16, 32)?);
            println!(
                "\n=== Ablation 4: per-kernel cost of the scheduled permutation (n = 64K) ===\n"
            );
            print!("{}", ablation::pass_breakdown(1 << 16)?);
        }
        "sweep" => {
            let n = args.n.unwrap_or(1 << 16);
            println!("=== Latency sweep (pure HMM, w = 32, n = {n}, bit-reversal) ===\n");
            let lats = [1usize, 16, 128, 512, 4096, 1 << 15, 1 << 18];
            print!(
                "{}",
                sweep::render("latency", &sweep::latency_sweep(n, &lats)?)
            );
            println!("\n=== Width sweep (pure HMM, l = 512, n = {n}, bit-reversal) ===\n");
            // w = 128 would need a 64 KB transpose tile (> 48 KB shared).
            let widths = [4usize, 8, 16, 32, 64];
            print!(
                "{}",
                sweep::render("width", &sweep::width_sweep(n, 512, &widths)?)
            );
        }
        "apps" => {
            let n = args.n.unwrap_or(1 << 18);
            println!("=== Application permutations on the GTX-680-like HMM (n = {n}) ===\n");
            print!(
                "{}",
                applications::render(
                    n,
                    &hmm_machine::MachineConfig::gtx680(hmm_machine::ElemWidth::F32)
                )?
            );
            println!(
                "\n(Sorting-network butterfly exchanges are already coalesced — γ_w = 1 —\n\
                 so the 3-round conventional kernel is the right tool for them; the FFT's\n\
                 bit-reversal and the matrix transpose are the γ_w = w workloads the\n\
                 scheduled algorithm exists for.)"
            );
        }
        "heatmap" => {
            use hmm_machine::{Hmm, MachineConfig};
            use hmm_offperm::driver::{run_on, Algorithm};
            let n = args.n.unwrap_or(1 << 14);
            let p = hmm_perm::families::bit_reversal(n)?;
            let input: Vec<u64> = (0..n as u64).collect();
            for alg in [Algorithm::DDesignated, Algorithm::Scheduled] {
                let mut hmm = Hmm::new(MachineConfig::pure(32, 512))?;
                hmm.start_trace();
                run_on(&mut hmm, alg, &p, &input)?;
                let trace = hmm.take_trace().expect("tracing enabled");
                println!(
                    "=== {} (bit-reversal, n = {n}): global access heatmap ===",
                    alg.name()
                );
                print!("{}", trace.render_global(16, 40));
                println!(
                    "shared accesses: {}, bank imbalance: {:.2} (1.0 = conflict-free)\n",
                    trace.shared_total(),
                    trace.bank_imbalance()
                );
            }
            println!(
                "(The conventional kernel touches only a/p/b; the scheduled kernel's\n\
                 extra buckets are its temporaries and 16-bit schedule arrays — more\n\
                 traffic, but every access streams.)"
            );
        }
        "generations" => {
            let sizes: Vec<usize> = (12..=21).map(|k| 1usize << k).collect();
            println!("=== Crossover size per GPU generation (bit-reversal, f32) ===\n");
            print!("{}", generations::render(&sizes)?);
            println!(
                "\n(The model's prediction: the conventional algorithm's refuge is the L2,\n\
                 so each generation's bigger cache pushes the scheduled algorithm's\n\
                 break-even to larger arrays.)"
            );
        }
        "native" => {
            // --json defaults to the acceptance sizes 256K / 1M / 4M.
            let sizes: Vec<usize> = if args.full {
                vec![1 << 18, 1 << 20, 1 << 22, 1 << 24]
            } else if args.json {
                vec![1 << 18, 1 << 20, 1 << 22]
            } else {
                vec![1 << 16, 1 << 20]
            };
            println!("=== Native CPU backend: wall-clock (median of 5) ===\n");
            let plan_threads = args.plan_threads.unwrap_or(4);
            let report = native_experiments::report(&sizes, 5, plan_threads)?;
            print!("{}", native_experiments::render(&report.rows));
            println!("\n=== Per-sweep: SIMD pipeline vs scalar (random) ===\n");
            print!("{}", native_experiments::render_sweeps(&report.sweep_rows));
            if !report.plan_build_rows.is_empty() {
                println!("\n=== Plan compiler: sequential vs parallel König build ===\n");
                print!(
                    "{}",
                    native_experiments::render_plan_build(&report.plan_build_rows)
                );
            }
            if args.json {
                let dir = std::path::Path::new("results");
                std::fs::create_dir_all(dir)?;
                let path = dir.join("BENCH_native.json");
                std::fs::write(&path, native_experiments::to_json(&report))?;
                println!("\n(wrote {})", path.display());
            }
        }
        "backends" => {
            // Acceptance sizes 256K–4M; quick mode stops at 1M because
            // the interpreter is serial by design.
            let sizes: Vec<usize> = if args.full {
                vec![1 << 18, 1 << 20, 1 << 22]
            } else {
                vec![1 << 18, 1 << 20]
            };
            let reps = if args.full { 5 } else { 3 };
            println!("=== Backend registry: one scheduled plan on every backend ===\n");
            let rows = native_experiments::backends(&sizes, reps)?;
            print!("{}", native_experiments::render_backends(&rows));
            println!(
                "\n(Both backends are pinned byte-identical to the reference before\n\
                 timing. `interp` executes the five-step sweep IR literally and\n\
                 serially — it is the correctness oracle behind the WGSL codegen,\n\
                 not a throughput contender; see EXPERIMENTS.md.)"
            );
            if args.json {
                let dir = std::path::Path::new("results");
                std::fs::create_dir_all(dir)?;
                let path = dir.join("BENCH_native.json");
                let existing = std::fs::read_to_string(&path).ok();
                std::fs::write(
                    &path,
                    native_experiments::merge_backends_json(existing.as_deref(), &rows),
                )?;
                println!("\n(merged backend rows into {})", path.display());
            }
        }
        "computed" => {
            // Acceptance sizes 256K–4M; quick mode stays cache-friendly so
            // the register-fold win is visible without a long run.
            let sizes: Vec<usize> = if args.full || args.json {
                vec![1 << 18, 1 << 20, 1 << 22]
            } else {
                vec![1 << 16, 1 << 18]
            };
            let reps = if args.full { 7 } else { 5 };
            println!("=== Computed-index kernels vs gather-map loads (structured plans) ===\n");
            let rows = native_experiments::computed_index(&sizes, reps)?;
            print!("{}", native_experiments::render_computed(&rows));
            println!(
                "\n(Both arms run the identical fused three-sweep plan; the computed arm\n\
                 evaluates the affine GF(2) fold in registers and never reads the 4n-byte\n\
                 gather maps, the map-load arm streams them. Outputs are asserted\n\
                 byte-identical to the reference before timing.)"
            );
            if args.json {
                let dir = std::path::Path::new("results");
                std::fs::create_dir_all(dir)?;
                let path = dir.join("BENCH_native.json");
                let existing = std::fs::read_to_string(&path).ok();
                std::fs::write(
                    &path,
                    native_experiments::merge_computed_json(existing.as_deref(), &rows),
                )?;
                println!("\n(merged computed_* rows into {})", path.display());
            }
        }
        "structured" => {
            let sizes: Vec<usize> = if args.full {
                vec![1 << 16, 1 << 20, 1 << 22]
            } else {
                vec![1 << 14, 1 << 18]
            };
            println!("=== Structured planner: closed-form BMMC emission vs König coloring ===\n");
            let rows = native_experiments::structured_plan_build(&sizes, 3)?;
            print!("{}", native_experiments::render_structured(&rows));
            println!("\n=== Plan fusion: bit-reversal → transpose 2-chain, plans warm ===\n");
            let fused = native_experiments::fused_chain(&sizes, 5)?;
            print!("{}", native_experiments::render_fused(&fused));
            println!(
                "\n(Structured families skip the multigraph entirely — the same three-pass\n\
                 contract, emitted by index arithmetic. Fusion composes the chain's bit\n\
                 matrices and plans the composite once: one memory round trip, 3 sweeps\n\
                 instead of 6.)"
            );
        }
        "plan-build" | "plan-save" | "plan-load" | "plan-stats" => plan_cmd(cmd, args)?,
        other => return Err(format!("unknown subcommand {other}").into()),
    }
    Ok(())
}

/// Build the permutation the `plan` subcommands operate on.
fn plan_permutation(
    args: &Args,
) -> Result<(hmm_perm::Permutation, &'static str, usize), Box<dyn std::error::Error>> {
    let n = args.n.unwrap_or(1 << 16);
    let seed = args.seed.unwrap_or(5);
    let name = args.family.as_deref().unwrap_or("random");
    let fam = families::Family::ALL
        .iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = families::Family::ALL.iter().map(|f| f.name()).collect();
            format!("unknown family '{name}' (known: {})", known.join(", "))
        })?;
    Ok((fam.build(n, seed)?, fam.name(), n))
}

/// `repro plan <build|save|load|stats>` — inspect, persist, and reload
/// backend-neutral plans through the on-disk store, exercising the same
/// `SharedEngine::with_store` path a production process would use.
fn plan_cmd(cmd: &str, args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    use hmm_native::SharedEngine;
    use hmm_plan::{encode, PlanIr, PlanStore};
    use std::time::Instant;

    let width = args.width.unwrap_or(32);
    let need_dir = || {
        args.dir
            .clone()
            .ok_or_else(|| format!("{cmd} needs --dir DIR"))
    };
    match cmd {
        "plan-build" => {
            let (p, fam, n) = plan_permutation(args)?;
            let t0 = Instant::now();
            let ir = PlanIr::build(&p, width)?;
            let dt = t0.elapsed();
            println!("plan: family={fam} n={n} width={width}");
            println!("  shape        : {}x{}", ir.shape().rows, ir.shape().cols);
            println!("  gamma_w      : {:.3}", ir.gamma());
            println!("  fingerprint  : {:016x}", ir.fingerprint());
            println!("  encoded bytes: {}", encode(&ir).len());
            println!("  build time   : {dt:.2?}");
        }
        "plan-save" | "plan-load" => {
            let dir = need_dir()?;
            let (p, fam, n) = plan_permutation(args)?;
            let engine: SharedEngine<u32> = SharedEngine::with_store(width, &dir)?;
            let src: Vec<u32> = (0..n as u32).collect();
            let mut dst = vec![0u32; n];
            let t0 = Instant::now();
            engine.permute(&p, &src, &mut dst)?;
            let dt = t0.elapsed();
            let mut want = vec![0u32; n];
            p.permute(&src, &mut want)?;
            let verified = dst == want;
            let s = engine.stats();
            println!(
                "{}: family={fam} n={n} width={width} dir={} ({dt:.2?})",
                if cmd == "plan-save" {
                    "saved"
                } else {
                    "loaded"
                },
                dir.display()
            );
            println!(
                "  builds={} structured={} store_hits={} store_rejects={} \
                 runs(scatter/scheduled)={}/{}",
                s.builds,
                s.plans_structured,
                s.store_hits,
                s.store_rejects,
                s.scatter_runs,
                s.scheduled_runs
            );
            println!("  verified={verified}");
            if !verified {
                return Err("output verification failed".into());
            }
            if cmd == "plan-save" && s.scatter_runs > 0 {
                println!("  note: γ_w under the threshold — scatter backend, nothing stored");
            }
            if args.assert_cold {
                if s.builds != 0 {
                    return Err(format!(
                        "--assert-cold: expected 0 König builds from the warm store, got {}",
                        s.builds
                    )
                    .into());
                }
                if s.store_hits == 0 {
                    return Err("--assert-cold: expected at least one store hit".into());
                }
                println!(
                    "  cold-start assertion: PASS (0 builds, {} store hit(s))",
                    s.store_hits
                );
            }
        }
        "plan-stats" => {
            let dir = need_dir()?;
            let store = PlanStore::open(&dir)?;
            let entries = store.entries()?;
            println!("plan store at {}: {} plan(s)", dir.display(), entries.len());
            let mut total = 0u64;
            for e in &entries {
                println!(
                    "  {:016x}  n={:<10} w={:<4} {} bytes",
                    e.key.fingerprint, e.key.n, e.key.width, e.bytes
                );
                total += e.bytes;
            }
            println!("  total bytes: {total}");
        }
        other => return Err(format!("unknown plan action {other}").into()),
    }
    Ok(())
}
