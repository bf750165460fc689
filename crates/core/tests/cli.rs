//! Bad `ncsw` values fail cleanly: one stderr line naming the token,
//! exit code 2, no panic.

use std::process::Command;

fn assert_rejected(args: &[&str], token: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ncsw")).args(args).output().expect("run ncsw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: want one line, got {stderr}");
    assert!(stderr.contains(token), "{args:?}: error does not name '{token}': {stderr}");
}

#[test]
fn zero_counts_are_rejected() {
    assert_rejected(&["benchmark", "--batch", "0"], "'0'");
    assert_rejected(&["classify", "--images", "0"], "'0'");
    assert_rejected(&["benchmark", "--devices", "0"], "'0'");
}

#[test]
fn malformed_numbers_are_rejected() {
    assert_rejected(&["benchmark", "--batch", "-1"], "'-1'");
    assert_rejected(&["benchmark", "--images", "1e3"], "'1e3'");
    assert_rejected(&["classify", "--seed", "x"], "'x'");
}

#[test]
fn a_batch_beyond_gpu_memory_is_rejected() {
    assert_rejected(&["benchmark", "--target", "gpu", "--batch", "100000"], "'100000'");
}

#[test]
fn counts_past_their_caps_are_rejected() {
    // A huge host batch overflowed the timing arithmetic, a huge image
    // count aborted on its allocation, and a VPU batch built that many sticks.
    assert_rejected(
        &["benchmark", "--target", "cpu", "--batch", "18446744073709551615"],
        "'18446744073709551615'",
    );
    assert_rejected(
        &["benchmark", "--target", "cpu", "--images", "8000000000000000000"],
        "'8000000000000000000'",
    );
    assert_rejected(&["benchmark", "--target", "vpu", "--batch", "2000"], "'2000'");
    assert_rejected(&["benchmark", "--devices", "1025"], "'1025'");
}
