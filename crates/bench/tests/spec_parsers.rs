//! Never-panic and round-trip laws for the spec-string parsers the CLI
//! and the harnesses feed: `FleetSpec`, `SamplePolicy`, `ScalePlan` and
//! `FaultPlan`.
//!
//! Each input is a concatenation of grammar fragments, junk and random
//! code points, so a good share of the cases parse. Every parser must
//! return (never panic, never allocate without bound), and whatever
//! parses must print to a spec that parses back to the same value.

use ncsw::ScalePlan;
use ncsw_faults::FaultPlan;
use ncsw_obs::SamplePolicy;
use ncsw_serve::FleetSpec;
use proptest::TestRng;

const CASES: usize = 4096;

/// Fragments every generated spec draws from besides its own grammar,
/// split on `|`: the empty string, a space, separators, numbers in every
/// notation (huge, overflowing, non-finite) and a non-ASCII letter.
const JUNK: &str = "| |,|+|*|:|@|-|x|0|1|8|07|+3|0.5|2.5|1e-7|1e7|1e308|nan|inf|-inf\
                    |99999999999999|18446744073709551616|é";

/// Up to 7 fragments, mostly from `grammar`, some from `junk`, one in
/// eight a random code point.
fn spec(rng: &mut TestRng, grammar: &[&str], junk: &[&str]) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(8) {
        let r = rng.next_u64();
        match r % 16 {
            0 | 1 => s.extend(char::from_u32((r >> 43) as u32)),
            2..=5 => s.push_str(junk[(r >> 8) as usize % junk.len()]),
            _ => s.push_str(grammar[(r >> 8) as usize % grammar.len()]),
        }
    }
    s
}

/// Feeds [`CASES`] specs built from the `|`-separated `grammar` to
/// `law`, which returns `Ok(true)` when the spec parsed and round-tripped
/// and `Ok(false)` when it was rejected. Fails on the first broken law,
/// or if too few specs parse for the law to mean much.
fn check(name: &str, grammar: &str, law: impl Fn(&str) -> Result<bool, String>) {
    let (grammar, junk): (Vec<_>, Vec<_>) =
        (grammar.split('|').collect(), JUNK.split('|').collect());
    let mut rng = TestRng::for_test(name);
    let mut parsed = 0;
    for _ in 0..CASES {
        let s = spec(&mut rng, &grammar, &junk);
        match law(&s) {
            Ok(ok) => parsed += ok as usize,
            Err(e) => panic!("{name}: {s:?}: {e}"),
        }
    }
    assert!(parsed >= CASES / 50, "{name}: only {parsed} of {CASES} specs parsed");
}

/// `Ok(true)` if `printed`, the print of `first`, parses back to `first`.
fn reparses<T: PartialEq + std::fmt::Debug>(
    printed: String,
    first: T,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<bool, String> {
    match parse(&printed) {
        Some(again) if again == first => Ok(true),
        other => Err(format!("printed as {printed:?}, which reparses to {other:?}, not {first:?}")),
    }
}

#[test]
fn fleet_specs_round_trip() {
    let grammar = "cpu|gpu|vpu|xvpu|*vpu|+|2|1025|99999999999999|8xvpu";
    check("fleet", grammar, |s| match FleetSpec::parse(s) {
        None => Ok(false),
        Some(f) => reparses(f.to_string(), f, FleetSpec::parse),
    });
}

#[test]
fn sample_policies_round_trip() {
    let grammar = "all|1-in-|1-in-7|1-in-25|+top|+top4|10|0";
    check("sample", grammar, |s| match SamplePolicy::parse(s) {
        Err(_) => Ok(false),
        Ok(p) => reparses(p.spec(), p, |s| SamplePolicy::parse(s).ok()),
    });
}

#[test]
fn scale_plans_round_trip() {
    let grammar = "exec@|host@0.5|usb-write@|usb-read@2|batch-wait@|dispatch@0.9|2";
    check("scale", grammar, |s| match ScalePlan::parse(s) {
        None => Ok(false),
        Some(p) => reparses(p.to_string(), p, ScalePlan::parse),
    });
}

#[test]
fn fault_plans_round_trip() {
    let grammar = "unplug@2s|unplug@|:reconnect@|:reconnect@4s|throttle@1s:for@2s:slow@\
                   |usb@1s:for@500ms:factor@2.5|failslow@|:for@|:slow@6|execerr@0.05\
                   |corrupt@|dup@0.02|drop@|w1:|s|ms|,|3";
    check("faults", grammar, |s| match FaultPlan::parse(s) {
        Err(_) => Ok(false),
        Ok(p) => reparses(p.to_spec(), p, |s| FaultPlan::parse(s).ok()),
    });
}
