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

/// Stdout of a successful `ncsw` run.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ncsw")).args(args).output().expect("run ncsw");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn devices_set_the_vpu_batch_and_batch_no_longer_sets_the_run_length() {
    // --devices replaces --batch on the VPU; the default 20 images are
    // then rounded to whole batches of 4, whatever --batch said.
    let base = ["benchmark", "--target", "vpu", "--devices", "4"];
    let plain = stdout_of(&base);
    assert!(plain.contains("batch 4 | 20 images"), "{plain}");
    let with_batch = stdout_of(&[&base[..], &["--batch", "2000"]].concat());
    assert_eq!(with_batch, plain);
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The reader goes away before the first line is written, as
    // `ncsw ... | head -c1` does after its byte.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ncsw"))
        .args(["benchmark", "--target", "cpu"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run ncsw");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for ncsw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_failing_stdout_is_one_error_line() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else { return };
    let out = Command::new(env!("CARGO_BIN_EXE_ncsw"))
        .args(["info"])
        .stdout(full)
        .output()
        .expect("run ncsw");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "want one line, got {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn info_prints_the_calibrated_chip() {
    let out = Command::new(env!("CARGO_BIN_EXE_ncsw")).args(["info"]).output().expect("run ncsw");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let chip = "  chip:    Myriad 2 MA2450 — 12 SHAVEs @ 600 MHz, 2 MB CMX, 4 GB LPDDR3";
    assert!(stdout.lines().any(|l| l == chip), "{stdout}");
}

#[test]
fn benchmark_reports_are_pinned() {
    for (args, line) in [
        (
            &["--target", "cpu"][..],
            "target cpu | batch 8 | 16 images: 44.0 img/s (22.72 ms/image, 0.55 img/W)\n",
        ),
        (
            &["--target", "gpu"],
            "target gpu | batch 8 | 16 images: 73.7 img/s (13.56 ms/image, 0.92 img/W)\n",
        ),
        (
            &["--target", "vpu"],
            "target vpu | batch 8 | 16 images: 76.9 img/s (13.01 ms/image, 3.84 img/W)\n",
        ),
        (
            &["--target", "vpu", "--devices", "4"],
            "target vpu | batch 4 | 20 images: 39.5 img/s (25.35 ms/image, 3.95 img/W)\n",
        ),
    ] {
        assert_eq!(stdout_of(&[&["benchmark"], args].concat()), line, "{args:?}");
    }
}
