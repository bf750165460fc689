//! Never-panic and round-trip laws for the graph-file reader.
//!
//! The checksum guards only against accidents, so the fuzz inputs carry a
//! valid one: each is a real graph file with bytes overwritten, or the
//! magic and version followed by random bytes, resealed. `parse` must
//! return, never panic or allocate without bound; and every zoo network
//! must survive `compile` → `parse` with each weight rounded to binary16
//! and nothing else changed.

use ncs_platform::graphfile::{compile, parse, GraphFileError};
use proptest::TestRng;
use vpu_nn::graph::NetworkSpec;
use vpu_nn::weights::Weights;
use vpu_nn::{googlenet, zoo};
use vpu_num::f16;
use vpu_num::rng::fnv1a;

const CASES: usize = 4096;

/// Append the FNV-1a checksum the reader verifies first.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = fnv1a(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Short random parameter vectors for every weighted layer: the wire
/// format does not check lengths against the topology, and full-size
/// weights for AlexNet would take 240 MB.
fn weights(spec: &NetworkSpec, rng: &mut TestRng) -> Weights {
    let mut w = Weights::new();
    let values = |rng: &mut TestRng| -> Vec<f32> {
        (0..rng.below(6)).map(|_| f32::from_bits(rng.next_u64() as u32)).collect()
    };
    for node in spec.nodes.iter().filter(|n| n.kind.has_weights()) {
        let (wv, bv) = (values(rng), values(rng));
        w.insert(&node.name, wv, bv);
    }
    w
}

fn bits(v: &[f32]) -> Vec<u16> {
    v.iter().map(|&x| f16::from_f32(x).to_bits()).collect()
}

#[test]
fn parse_never_panics_on_sealed_junk() {
    let mut rng = TestRng::for_test("graphfile");
    let spec = googlenet::tiny();
    let real = compile(&spec, &weights(&spec, &mut rng)).to_vec();
    let real_body = &real[..real.len() - 8];
    let mut parsed = 0;
    for _ in 0..CASES {
        let body = if rng.below(2) == 0 {
            let mut body = real_body.to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(body.len() as u64) as usize;
                body[at] = rng.next_u64() as u8;
            }
            body.truncate(rng.below(body.len() as u64 + 1) as usize);
            body
        } else {
            let mut body = b"NCSG\x01\x00\x01\x00".to_vec();
            body.extend((0..rng.below(64)).map(|_| match rng.below(4) {
                0 => 0xff,
                1 => 0,
                _ => rng.next_u64() as u8,
            }));
            body
        };
        parsed += parse(&seal(body)).is_ok() as usize;
    }
    assert!(parsed > 0, "no fuzz input parsed");
}

#[test]
fn a_huge_layer_count_is_truncated_not_an_allocation() {
    // 41 bytes: a valid header claiming u32::MAX layers, then the
    // checksum. The reader must not reserve room for four billion layers.
    let mut body = b"NCSG\x01\x00\x01\x00".to_vec();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(b'x');
    for d in [1u32, 3, 8, 8, u32::MAX] {
        body.extend_from_slice(&d.to_le_bytes());
    }
    let blob = seal(body);
    assert_eq!(blob.len(), 41);
    assert_eq!(parse(&blob), Err(GraphFileError::Truncated));
}

#[test]
fn every_zoo_network_round_trips() {
    let mut rng = TestRng::for_test("graphfile-zoo");
    let zoo: [NetworkSpec; 5] = [
        googlenet::tiny(),
        googlenet::mini(),
        googlenet::full(),
        zoo::squeezenet_v10(),
        zoo::alexnet_one_tower(),
    ];
    for spec in zoo {
        let w = weights(&spec, &mut rng);
        let g = parse(&compile(&spec, &w)).expect("a compiled graph parses");
        let s = spec.input_shape;
        assert_eq!(g.name, spec.name);
        assert_eq!(g.input, (s.n as u32, s.c as u32, s.h as u32, s.w as u32));
        let weighted: Vec<&str> =
            spec.nodes.iter().filter(|n| n.kind.has_weights()).map(|n| n.name.as_str()).collect();
        assert_eq!(g.layers.iter().map(|l| l.name.as_str()).collect::<Vec<_>>(), weighted);
        for l in &g.layers {
            let p = w.get(&l.name).expect("compiled from these weights");
            assert_eq!(l.w.iter().map(|h| h.to_bits()).collect::<Vec<_>>(), bits(&p.w));
            assert_eq!(l.b.iter().map(|h| h.to_bits()).collect::<Vec<_>>(), bits(&p.b));
        }
    }
}
