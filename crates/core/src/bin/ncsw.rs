//! `ncsw` — the framework CLI, shaped after the paper's public tool.
//!
//! ```text
//! ncsw info
//! ncsw classify  [--target cpu|gpu|vpu] [--devices N] [--images N] [--seed S]
//! ncsw benchmark [--target cpu|gpu|vpu] [--batch N] [--images N]
//! ```
//!
//! `classify` runs real inference over a synthetic validation folder and
//! prints per-image labels with confidences (FP16 on the VPU target,
//! FP32 on the hosts). `benchmark` measures simulated throughput with
//! the full-geometry GoogLeNet work profile.

use std::process::ExitCode;
use std::sync::Arc;

use hostsim::MAX_BATCH;
use ilsvrc_sim::{pseudo_train, DatasetConfig, ValidationSet};
use ncsw::runner::{predictions_fp16, predictions_fp32};
use ncsw::{HostConfig, HostTarget, ImageFolder, IntelVpu, ModelBundle, TargetDevice, MAX_STICKS};
use vpu_nn::googlenet::Variant;

const USAGE: &str = "usage: ncsw <info|classify|benchmark> [--target cpu|gpu|vpu] [--devices N] [--images N] [--batch N] [--seed S]";

/// Why a command line is refused; either way the exit code is 2.
enum Refusal {
    /// A malformed invocation: the error line, then the usage line.
    Usage(String),
    /// A bad value: one line naming the flag and its token.
    Bad(String),
}

fn bad(flag: &str, token: impl std::fmt::Display, why: impl std::fmt::Display) -> Refusal {
    Refusal::Bad(format!("bad {flag} '{token}': {why}"))
}

/// Most images one command simulates (`--images`): twenty times the
/// paper's 5 × 10,000-image protocol. `benchmark` keeps a record per
/// batch and `classify` builds five subsets of this size.
const MAX_IMAGES: usize = 1_000_000;

/// `flag`'s value as a count in `1..=max`.
fn count(flag: &str, token: String, max: usize) -> Result<usize, Refusal> {
    match token.parse() {
        Ok(n) if n > max => Err(bad(flag, token, format!("expected at most {max}"))),
        Ok(n) if n > 0 => Ok(n),
        _ => Err(bad(flag, token, "expected a positive integer")),
    }
}

struct Args {
    command: String,
    target: String,
    devices: usize,
    images: usize,
    batch: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, Refusal> {
    let mut args = Args {
        command: String::new(),
        target: "vpu".into(),
        devices: 1,
        images: 20,
        batch: 8,
        seed: 2012,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, Refusal> {
            it.next().cloned().ok_or_else(|| Refusal::Usage(format!("{name} needs a value")))
        };
        match a.as_str() {
            "--target" => args.target = take("--target")?,
            "--devices" => args.devices = count("--devices", take("--devices")?, MAX_STICKS)?,
            "--images" => args.images = count("--images", take("--images")?, MAX_IMAGES)?,
            "--batch" => args.batch = count("--batch", take("--batch")?, MAX_BATCH)?,
            "--seed" => {
                let token = take("--seed")?;
                args.seed =
                    token.parse().map_err(|_| bad("--seed", &token, "expected an integer"))?
            }
            other if args.command.is_empty() && !other.starts_with('-') => {
                args.command = other.to_string();
            }
            other => return Err(Refusal::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    if args.command.is_empty() {
        return Err(Refusal::Usage("missing command".into()));
    }
    if !matches!(args.target.as_str(), "cpu" | "gpu" | "vpu") {
        return Err(Refusal::Usage(format!("unknown target '{}'", args.target)));
    }
    Ok(args)
}

fn info() {
    let cost = ModelBundle::paper_cost_fp16();
    println!("NCSw — Neural Compute Stick Wrapper (simulated testbed)");
    println!("  sources: ImageFolder (synthetic ILSVRC-2012), MpiStream");
    println!("  targets: cpu (Caffe-MKL model), gpu (Caffe-cuDNN model), vpu (NCAPI multi-stick)");
    println!(
        "  network: {} — {:.2} GMAC/inference, {:.1} MB fp16 graph",
        cost.network,
        cost.total_macs as f64 / 1e9,
        cost.total_weight_bytes() as f64 / 1e6
    );
    println!("  chip:    Myriad 2 MA2450 — 12 SHAVEs @ 600 MHz, 2 MB CMX, 4 GB LPDDR3");
    println!("  anchors: 26.0 / 25.9 / 100.7 ms batch-1 latency (cpu/gpu/vpu)");
    println!("\npaper testbed topology (Fig. 5):");
    let fleet = ncs_platform::Fleet::new(
        8,
        ncs_platform::Topology::PaperTestbed,
        ncs_platform::NcsConfig::default(),
    );
    print!("{}", fleet.describe());
}

fn classify(args: &Args) {
    let variant = Variant::Tiny;
    let spec = Arc::new(variant.build());
    // One subset must hold all requested images (the set splits 5 ways).
    let total = args.images * 5;
    let mut cfg = DatasetConfig::ilsvrc_like(10, total, variant.input_shape(), args.seed);
    cfg.sigma = 0.15;
    cfg.distractor_mix = 0.05;
    let set = Arc::new(ValidationSet::new(cfg));
    let weights = pseudo_train(&spec, set.generator(), args.seed);
    let model = ModelBundle::deploy(spec, weights);
    let folder = ImageFolder::new(set.clone(), 0);

    let preds = match args.target.as_str() {
        "vpu" => predictions_fp16(&model, &folder),
        _ => predictions_fp32(&model, &folder),
    };
    let shown = preds.len().min(args.images);
    println!(
        "classifying {} images on target '{}' ({}):",
        shown,
        args.target,
        if args.target == "vpu" { "fp16" } else { "fp32" }
    );
    for p in preds.iter().take(shown) {
        let truth = set.synsets().get(p.label);
        let guess = set.synsets().get(p.predicted);
        println!(
            "  image {:>4}: {} ({:.1}%)  truth: {} {}",
            p.image,
            guess.name,
            p.confidence * 100.0,
            truth.name,
            if p.correct() { "✓" } else { "✗" }
        );
    }
    let wrong = preds.iter().take(shown).filter(|p| !p.correct()).count();
    println!("top-1 error: {:.1}%", wrong as f64 / shown as f64 * 100.0);
}

fn benchmark(args: &Args) -> Result<(), Refusal> {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let images = args.images.max(args.batch) / args.batch * args.batch;
    let host = |cfg: HostConfig| -> Result<Box<dyn TargetDevice>, Refusal> {
        let target = HostTarget::new(model.clone(), cfg);
        match target.device().max_batch(target.cost()) {
            Some(max) if args.batch > max => Err(bad(
                "--batch",
                args.batch,
                format!("exceeds {} memory (at most {max})", cfg.name),
            )),
            _ => Ok(Box::new(target)),
        }
    };
    let mut target: Box<dyn TargetDevice> = match args.target.as_str() {
        "cpu" => host(HostConfig::xeon_e5())?,
        "gpu" => host(HostConfig::k4000())?,
        // The framework couples batch size to active sticks; --devices
        // overrides when given.
        _ if args.devices > 1 => Box::new(IntelVpu::new(model, args.devices)),
        _ if args.batch > MAX_STICKS => {
            return Err(bad("--batch", args.batch, format!("expected at most {MAX_STICKS} sticks")))
        }
        _ => Box::new(IntelVpu::new(model, args.batch)),
    };
    let batch = if args.target == "vpu" && args.devices > 1 { args.devices } else { args.batch };
    let images = images.max(batch) / batch * batch;
    let r = target.run_throughput(images, batch);
    println!(
        "target {} | batch {} | {} images: {:.1} img/s ({:.2} ms/image, {:.2} img/W)",
        target.name(),
        batch,
        images,
        r.images_per_sec(),
        r.per_image_ms(),
        r.images_per_watt(target.tdp_w(batch)),
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), Refusal> {
    match args.command.as_str() {
        "info" => info(),
        "classify" => classify(args),
        "benchmark" => benchmark(args)?,
        other => return Err(Refusal::Usage(format!("unknown command '{other}'"))),
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Refusal::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Refusal::Bad(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
