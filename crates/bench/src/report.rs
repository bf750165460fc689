//! Small table-printing and artifact-writing helpers shared by the
//! experiment printers and the `repro` CLI.

use serde::Serialize;

/// Write `content` to `path`, logging the write to stderr; exits with
/// status 2 on failure (the CLI's I/O-error convention). One shared
/// sink for every experiment artifact the CLI emits.
pub fn write_artifact(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

/// Serialize `value` as pretty JSON (with trailing newline) and write
/// it via [`write_artifact`].
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    let s = serde_json::to_string_pretty(value).expect("serialize");
    write_artifact(path, &(s + "\n"));
}

/// Write `content` as `<dir>/<name>.csv`, creating `dir` first — the
/// `--csv DIR` pattern shared by every per-figure experiment.
pub fn write_csv_in(dir: &str, name: &str, content: &str) {
    let path = format!("{dir}/{name}.csv");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, content)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

/// Print a header line with a rule under it.
pub fn header(title: &str) {
    println!("\n{title}");
    println!("{}", "─".repeat(title.chars().count().max(8)));
}

/// Format a float with fixed width/precision.
pub fn num(v: f64, prec: usize) -> String {
    format!("{v:>8.prec$}")
}

/// Format `measured` next to a paper reference value with the relative
/// deviation, e.g. `77.4 (paper 77.2, +0.3%)`.
pub fn vs_paper(measured: f64, paper: f64, prec: usize) -> String {
    let dev = if paper != 0.0 { (measured - paper) / paper * 100.0 } else { 0.0 };
    format!("{measured:.prec$} (paper {paper:.prec$}, {dev:+.1}%)")
}

/// A mean ± stddev cell.
pub fn pm(mean: f64, sd: f64, prec: usize) -> String {
    format!("{mean:.prec$}±{sd:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(num(1.5, 2), "    1.50");
        assert_eq!(pm(10.0, 0.5, 1), "10.0±0.5");
        let s = vs_paper(77.4, 77.2, 1);
        assert!(s.contains("77.4"));
        assert!(s.contains("paper 77.2"));
        assert!(s.contains("+0.3%"));
        let z = vs_paper(1.0, 0.0, 1);
        assert!(z.contains("+0.0%"));
    }
}
