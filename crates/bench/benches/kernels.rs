//! Microbenchmarks of the compute kernels that carry the real numerics:
//! GEMM at both precisions and accumulation modes, im2col + convolution,
//! pooling/LRN/softmax, the Tiny GoogLeNet kernels at their own shapes,
//! image noise, and binary16 conversion throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration as StdDuration;

/// Short sampling profile: the harness runs on small CI machines and the
/// benches exist to catch regressions, not to hunt microseconds.
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(StdDuration::from_millis(300))
        .measurement_time(StdDuration::from_secs(2))
}
use rand::Rng;
use vpu_num::f16;
use vpu_tensor::kernels::activation::softmax;
use vpu_tensor::kernels::conv::{conv2d, ConvParams};
use vpu_tensor::kernels::gemm::{gemm, AccumMode};
use vpu_tensor::kernels::lrn::{lrn, LrnParams};
use vpu_tensor::kernels::pool::{pool2d, PoolKind, PoolParams};
use vpu_tensor::{Shape, Tensor};

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = vpu_num::rng::seeded(seed);
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128] {
        let a32 = rand_vec(n * n, 1);
        let b32 = rand_vec(n * n, 2);
        let a16: Vec<f16> = a32.iter().map(|&x| f16::from_f32(x)).collect();
        let b16: Vec<f16> = b32.iter().map(|&x| f16::from_f32(x)).collect();
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("f32-widened", n), &n, |bench, &n| {
            let mut out = vec![0.0f32; n * n];
            bench.iter(|| {
                gemm(n, n, n, black_box(&a32), black_box(&b32), &mut out, AccumMode::Widened)
            });
        });
        g.bench_with_input(BenchmarkId::new("f16-native", n), &n, |bench, &n| {
            let mut out = vec![f16::ZERO; n * n];
            bench.iter(|| {
                gemm(n, n, n, black_box(&a16), black_box(&b16), &mut out, AccumMode::Native)
            });
        });
        g.bench_with_input(BenchmarkId::new("f16-widened", n), &n, |bench, &n| {
            let mut out = vec![f16::ZERO; n * n];
            bench.iter(|| {
                gemm(n, n, n, black_box(&a16), black_box(&b16), &mut out, AccumMode::Widened)
            });
        });
    }
    g.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    // GoogLeNet-like geometries at reduced extents.
    for &(ic, oc, hw, k, pad) in
        &[(3usize, 16usize, 32usize, 3usize, 1usize), (16, 32, 16, 3, 1), (32, 32, 16, 1, 0)]
    {
        let input =
            Tensor::<f32>::from_f32_slice(Shape::chw(ic, hw, hw), &rand_vec(ic * hw * hw, 3));
        let p = ConvParams::new(oc, k, 1, pad);
        let w = rand_vec(p.weight_len(ic), 4);
        let b = rand_vec(oc, 5);
        g.throughput(Throughput::Elements(p.macs(input.shape())));
        g.bench_function(format!("{ic}x{hw}x{hw}-k{k}-oc{oc}"), |bench| {
            bench.iter(|| conv2d(black_box(&input), &w, &b, &p, AccumMode::Widened, true));
        });
    }
    g.finish();
}

fn bench_pool_lrn_softmax(c: &mut Criterion) {
    let input = Tensor::<f32>::from_f32_slice(Shape::chw(32, 28, 28), &rand_vec(32 * 28 * 28, 6));
    c.bench_function("maxpool-3x3s2/32x28x28", |b| {
        let p = PoolParams::new(PoolKind::Max, 3, 2, 0);
        b.iter(|| pool2d(black_box(&input), &p));
    });
    c.bench_function("lrn-googlenet/32x28x28", |b| {
        let p = LrnParams::googlenet();
        b.iter(|| lrn(black_box(&input), &p));
    });
    let logits = Tensor::<f32>::from_f32_slice(Shape::vector(8, 1000), &rand_vec(8000, 7));
    c.bench_function("softmax/8x1000", |b| {
        b.iter(|| softmax(black_box(&logits)));
    });
}

/// The kernels of one Tiny GoogLeNet forward at their Tiny shapes, the
/// `accuracy` workload's hot path: `inception_2b`'s 8×8 s1 p1 max pool
/// and its 3×3 and 5×5 convs, `pool1`'s 16×16 s2 ceil-mode max pool, and
/// one synthetic image.
fn bench_tiny_shapes(c: &mut Criterion) {
    use ilsvrc_sim::image::ImageGen;
    use ilsvrc_sim::DatasetConfig;
    let mut g = c.benchmark_group("tiny");
    for (name, shape, stride, pad) in [
        ("maxpool-3x3s1p1/28x8x8", Shape::chw(28, 8, 8), 1, 1),
        ("maxpool-3x3s2/8x16x16", Shape::chw(8, 16, 16), 2, 0),
    ] {
        let input = Tensor::<f32>::from_f32_slice(shape, &rand_vec(shape.len(), 10));
        let input16 = input.quantize_fp16();
        let p = PoolParams::new(PoolKind::Max, 3, stride, pad);
        g.bench_function(format!("{name}/fp32"), |b| b.iter(|| pool2d(black_box(&input), &p)));
        g.bench_function(format!("{name}/fp16"), |b| b.iter(|| pool2d(black_box(&input16), &p)));
    }
    for (ic, oc, k) in [(8usize, 16usize, 3usize), (4, 8, 5)] {
        let input = Tensor::<f32>::from_f32_slice(Shape::chw(ic, 8, 8), &rand_vec(ic * 64, 11));
        let p = ConvParams::new(oc, k, 1, k / 2);
        let w = rand_vec(p.weight_len(ic), 12);
        let bias = rand_vec(oc, 13);
        let input16 = input.quantize_fp16();
        let w16: Vec<f16> = w.iter().map(|&x| f16::from_f32(x)).collect();
        let bias16: Vec<f16> = bias.iter().map(|&x| f16::from_f32(x)).collect();
        let name = format!("conv-{k}x{k}/{ic}x8x8-oc{oc}");
        g.bench_function(format!("{name}/fp32"), |b| {
            b.iter(|| conv2d(black_box(&input), &w, &bias, &p, AccumMode::Widened, true))
        });
        g.bench_function(format!("{name}/fp16"), |b| {
            b.iter(|| conv2d(black_box(&input16), &w16, &bias16, &p, AccumMode::Native, true))
        });
    }
    let gen =
        ImageGen::new(DatasetConfig::ilsvrc_like(10, 500, Shape::chw(3, 32, 32), 2012).image_gen());
    let mut index = 0u64;
    g.bench_function("image-sample/3x32x32", |b| {
        b.iter(|| {
            index += 1;
            gen.sample(black_box(index as usize % 10), index)
        })
    });
    g.finish();
}

/// Image noise: [`vpu_num::rng::fill_normal_f32`] against the libm
/// reference it must match (repeated `rng::normal`, rounded to f32), at
/// the Tiny and Mini image sizes.
fn bench_normals(c: &mut Criterion) {
    use vpu_num::rng;
    let mut g = c.benchmark_group("normals");
    for len in [3 * 32 * 32, 3 * 64 * 64] {
        let mut out = vec![0.0f32; len];
        g.throughput(Throughput::Elements(len as u64));
        let mut stream = rng::seeded(7);
        g.bench_function(format!("fill_normal_f32/{len}"), |b| {
            b.iter(|| rng::fill_normal_f32(&mut stream, black_box(&mut out)))
        });
        let mut stream = rng::seeded(7);
        g.bench_function(format!("reference/{len}"), |b| {
            b.iter(|| {
                for x in black_box(&mut out).iter_mut() {
                    *x = rng::normal(&mut stream) as f32;
                }
            })
        });
    }
    g.finish();
}

fn bench_f16(c: &mut Criterion) {
    let xs = rand_vec(4096, 8);
    let hs: Vec<f16> = xs.iter().map(|&x| f16::from_f32(x)).collect();
    let mut g = c.benchmark_group("f16");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("from_f32/4096", |b| {
        b.iter(|| xs.iter().map(|&x| f16::from_f32(black_box(x))).collect::<Vec<_>>());
    });
    g.bench_function("to_f32/4096", |b| {
        b.iter(|| hs.iter().map(|h| black_box(*h).to_f32()).collect::<Vec<_>>());
    });
    g.bench_function("mul-add-chain/4096", |b| {
        b.iter(|| {
            let mut acc = f16::ZERO;
            for &h in &hs {
                acc += h * f16::from_f32(0.5);
            }
            acc
        });
    });
    g.finish();
}

fn bench_network_forward(c: &mut Criterion) {
    use std::sync::Arc;
    use vpu_nn::graph::CompiledNetwork;
    let spec = Arc::new(vpu_nn::googlenet::tiny());
    let w = vpu_nn::init::xavier(&spec, 1);
    let n32 = CompiledNetwork::<f32>::compile(spec.clone(), &w, AccumMode::Widened);
    let n16 = CompiledNetwork::<f16>::compile(spec, &w, AccumMode::Native);
    let input = Tensor::<f32>::from_f32_slice(Shape::chw(3, 32, 32), &rand_vec(3 * 32 * 32, 9));
    let input16 = input.quantize_fp16();
    c.bench_function("tiny-googlenet-forward/fp32", |b| {
        b.iter(|| n32.forward(black_box(&input)));
    });
    c.bench_function("tiny-googlenet-forward/fp16", |b| {
        b.iter(|| n16.forward(black_box(&input16)));
    });
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_gemm, bench_conv, bench_pool_lrn_softmax, bench_tiny_shapes, bench_normals,
        bench_f16,
        bench_network_forward
}
criterion_main!(benches);
