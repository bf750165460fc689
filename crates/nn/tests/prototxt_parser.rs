//! Never-panic and round-trip laws for the deploy-prototxt reader.
//!
//! Each input is a header and a chain of layers drawn from the grammar
//! the reader knows, with numbers that break windows (zero, huge,
//! overflowing) and, in some cases, a few fragments of junk spliced in.
//! `parse` must return, never panic; whatever parses must print to text
//! that parses back and prints the same; and every zoo network must
//! survive `emit` → `parse` unchanged.

use proptest::TestRng;
use vpu_nn::graph::NetworkSpec;
use vpu_nn::prototxt::{emit, parse};
use vpu_nn::{googlenet, zoo};

const CASES: usize = 4096;

const NUMBERS: [&str; 12] = [
    "0",
    "1",
    "2",
    "3",
    "5",
    "7",
    "16",
    "224",
    "-1",
    "9223372036854775807",
    "18446744073709551615",
    "99999999999999999999",
];

const TYPES: [&str; 9] = [
    "Convolution",
    "Pooling",
    "ReLU",
    "LRN",
    "Concat",
    "Dropout",
    "InnerProduct",
    "Softmax",
    "BatchNorm",
];

const KEYS: [&str; 10] = [
    "num_output",
    "kernel_size",
    "stride",
    "pad",
    "local_size",
    "alpha",
    "dropout_ratio",
    "fused_relu",
    "pool",
    "input_dim",
];

const JUNK: [&str; 10] = ["{", "}", "\"", "#", ":", "layer {", "name: \"input\"", "é", "\n", " "];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A header with four `input_dim`s and up to six layers, each taking
/// one or two earlier nodes as bottoms and up to four parameters.
fn prototxt(rng: &mut TestRng) -> String {
    let mut s = String::from("name: \"fuzz\"\ninput: \"data\"\n");
    for _ in 0..4 {
        s.push_str(&format!("input_dim: {}\n", pick(rng, &NUMBERS[..8])));
    }
    let mut names = vec!["data".to_string()];
    for i in 0..rng.below(7) {
        let name = format!("l{i}");
        s.push_str(&format!("layer {{\n  name: \"{name}\"\n  type: \"{}\"\n", pick(rng, &TYPES)));
        for _ in 0..1 + rng.below(2) {
            let bottom = &names[rng.below(names.len() as u64) as usize];
            s.push_str(&format!("  bottom: \"{bottom}\"\n"));
        }
        for _ in 0..rng.below(5) {
            let value = match rng.below(8) {
                0 => "MAX",
                1 => "AVE",
                2 => "true",
                _ => pick(rng, &NUMBERS),
            };
            s.push_str(&format!("  {}: {value}\n", pick(rng, &KEYS)));
        }
        s.push_str("}\n");
        names.push(name);
    }
    if rng.below(4) == 0 {
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(s.len() as u64 + 1) as usize;
            if s.is_char_boundary(at) {
                s.insert_str(at, pick(rng, &JUNK));
            }
        }
    }
    s
}

#[test]
fn parse_never_panics_and_reprints_what_it_reads() {
    let mut rng = TestRng::for_test("prototxt");
    let mut parsed = 0;
    for _ in 0..CASES {
        let text = prototxt(&mut rng);
        let Ok(spec) = parse(&text) else { continue };
        parsed += 1;
        let printed = emit(&spec);
        let again =
            parse(&printed).unwrap_or_else(|e| panic!("{text:?} reprints as {printed:?}: {e}"));
        assert_eq!(emit(&again), printed, "{text:?}");
    }
    assert!(parsed >= CASES / 20, "only {parsed} of {CASES} inputs parsed");
}

#[test]
fn every_zoo_network_round_trips() {
    let zoo: [NetworkSpec; 5] = [
        googlenet::tiny(),
        googlenet::mini(),
        googlenet::full(),
        zoo::squeezenet_v10(),
        zoo::alexnet_one_tower(),
    ];
    for spec in zoo {
        assert_eq!(parse(&emit(&spec)).as_ref(), Ok(&spec), "{}", spec.name);
    }
}

const HEADER: &str = "input_dim: 1\ninput_dim: 3\ninput_dim: 8\ninput_dim: 8\n";

#[test]
fn a_zero_stride_is_an_error_naming_the_layer() {
    let text = format!(
        "{HEADER}layer {{\n  name: \"conv1\"\n  type: \"Convolution\"\n  bottom: \"input\"\n  \
         num_output: 4\n  kernel_size: 3\n  stride: 0\n}}\n"
    );
    let err = parse(&text).unwrap_err();
    assert_eq!(err.0, "layer 'conv1': stride must be positive");
}

#[test]
fn a_kernel_larger_than_its_padded_input_is_an_error_naming_the_layer() {
    let text = format!(
        "{HEADER}layer {{\n  name: \"pool1\"\n  type: \"Pooling\"\n  bottom: \"input\"\n  \
         kernel_size: 11\n  pad: 1\n}}\n"
    );
    let err = parse(&text).unwrap_err();
    assert_eq!(err.0, "layer 'pool1': kernel 11 larger than padded input 10");
}

#[test]
fn a_quote_inside_a_bare_value_is_an_error() {
    // `emit` quotes names, so a name holding a quote would print as
    // text that does not parse.
    let err = parse(&format!("name: a\"b\n{HEADER}")).unwrap_err();
    assert_eq!(err.0, "line 1: unexpected character '\"'");
}
