//! E8 — the Fig. 4 multi-VPU execution timeline, rendered as an ASCII
//! Gantt chart from the pipeline's recorded host and VPU events.

use crate::report;
use desim::SimTime;
use ncsw::multivpu::{MultiVpu, MultiVpuConfig};
use ncsw::ModelBundle;
use ncsw_obs::{BatchObs, Event, EventLog, Lane, Phase};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline {
    pub devices: usize,
    pub images: usize,
    pub gantt: String,
    pub makespan_ms: f64,
    /// Fraction of the makespan during which ≥2 device execs overlap.
    pub overlap_fraction: f64,
}

/// Reproduce Fig. 4: four devices, two images each, load → exec → read.
pub fn timeline() -> Timeline {
    timeline_with(4, 8)
}

pub fn timeline_with(devices: usize, images: usize) -> Timeline {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(devices), &model);
    let mut log = EventLog::new();
    let mut obs = BatchObs { rec: &mut log, batch_id: 0, worker: 0, ids: &[] };
    let run = mv.run_pipeline_obs(images, SimTime::ZERO, &mut obs);
    Timeline {
        devices,
        images,
        gantt: render_gantt(log.events(), run.start, 96),
        makespan_ms: run.makespan().as_millis(),
        overlap_fraction: overlap_fraction(log.events(), run.start, run.end),
    }
}

/// The Gantt row and cell letter of a host `l`oad/`r`ead or on-chip
/// `e`xec span; `None` for every other event.
fn gantt_cell(ev: &Event) -> Option<(String, u8)> {
    match (ev.lane, ev.phase) {
        (Lane::Host { dev, .. }, Phase::UsbWrite) => Some((format!("host{dev}"), b'l')),
        (Lane::Host { dev, .. }, Phase::UsbRead) => Some((format!("host{dev}"), b'r')),
        (Lane::Vpu { dev, .. }, Phase::Exec) => Some((format!("vpu{dev}"), b'e')),
        _ => None,
    }
}

/// Render the host and VPU spans of `events` as an ASCII Gantt chart
/// `width` cells across, with `origin` as t=0 (earlier instants clip to
/// it). Rows appear in first-event order; each span paints its letter,
/// and spans overlapping within one row paint `#`.
fn render_gantt(events: &[Event], origin: SimTime, width: usize) -> String {
    assert!(width >= 10, "gantt width too small");
    let at = |t: SimTime| t.nanos().saturating_sub(origin.nanos());
    let mut names: Vec<String> = Vec::new();
    let mut spans = Vec::new();
    for ev in events {
        let (Some(end), Some((name, ch))) = (ev.end, gantt_cell(ev)) else { continue };
        let row = names.iter().position(|n| *n == name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        });
        spans.push((row, at(ev.start), at(end), ch));
    }
    let horizon = spans.iter().map(|&(_, _, end, _)| end).max().unwrap_or(0);
    if horizon == 0 {
        return String::from("(empty trace)\n");
    }
    let scale = width as f64 / horizon as f64;
    let mut grid = vec![vec![b'.'; width]; names.len()];
    for &(row, start, end, ch) in &spans {
        let a = (start as f64 * scale).floor() as usize;
        let b = ((end as f64 * scale).ceil() as usize).min(width).max(a + 1);
        for cell in &mut grid[row][a..b.min(width)] {
            *cell = if *cell == b'.' { ch } else { b'#' };
        }
    }
    let name_w = names.iter().map(String::len).max().unwrap_or(4).max(4);
    let mut out = String::new();
    for (name, row) in names.iter().zip(&grid) {
        out.push_str(&format!("{name:>name_w$} |{}|\n", String::from_utf8_lossy(row)));
    }
    let horizon = SimTime(horizon);
    out.push_str(&format!("{:>name_w$} 0{:>w$}\n", "t", format!("{horizon}"), w = width));
    out
}

/// Fraction of `[start, end)`, sampled on a 2000-step grid, during which
/// at least two chips have an exec span in `events`.
fn overlap_fraction(events: &[Event], start: SimTime, end: SimTime) -> f64 {
    let execs: Vec<(u32, u64, u64)> = events
        .iter()
        .filter_map(|e| match (e.lane, e.phase, e.end) {
            (Lane::Vpu { dev, .. }, Phase::Exec, Some(end)) => {
                Some((dev, e.start.nanos(), end.nanos()))
            }
            _ => None,
        })
        .collect();
    let (t0, t1) = (start.nanos(), end.nanos());
    let steps = 2000u64;
    let overlapped = (0..steps)
        .filter(|k| {
            let t = t0 + (t1 - t0) * k / steps;
            let mut busy = execs.iter().filter(|&&(_, a, b)| a <= t && t < b).map(|&(dev, ..)| dev);
            let first = busy.next();
            busy.any(|dev| Some(dev) != first)
        })
        .count();
    overlapped as f64 / steps as f64
}

impl Timeline {
    pub fn print(&self) {
        report::header(&format!(
            "E8 / Fig. 4 — multi-VPU timeline: {} devices, {} images (makespan {:.1} ms, {:.0}% of it ≥2 chips busy)",
            self.devices,
            self.images,
            self.makespan_ms,
            self.overlap_fraction * 100.0
        ));
        println!("lanes: host* = load/read on the host thread; vpu* = on-chip execution");
        print!("{}", self.gantt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::Ctx;

    fn span(phase: Phase, lane: Lane, start: u64, end: u64) -> Event {
        Event::span(phase, lane, SimTime(start), SimTime(end), Ctx::NONE)
    }

    #[test]
    fn fig4_gantt_is_pinned() {
        const FIG4: &str = r"host0 |#l.............................................r..............................................r.|
host1 |#ll............................................rr..............................................r|
host2 |l#l.............................................r..............................................r|
host3 |l#ll............................................r..............................................r|
 vpu0 |eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee#eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee.|
 vpu1 |.eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee.|
 vpu2 |.eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee#eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee|
 vpu3 |.eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee#eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee|
    t 0                                                                                       205.025ms
";
        assert_eq!(timeline_with(4, 8).gantt, FIG4);
    }

    #[test]
    fn gantt_renders_labels_in_position() {
        let host = Lane::Host { worker: 0, dev: 0 };
        let events = [span(Phase::UsbWrite, host, 0, 50), span(Phase::UsbRead, host, 50, 100)];
        let g = render_gantt(&events, SimTime::ZERO, 20);
        // First half 'l's, second half 'r's.
        let row = g.lines().next().unwrap();
        assert!(row.contains("host0"));
        let cells: String = row.chars().skip_while(|&c| c != '|').collect();
        assert!(cells.starts_with("|lllllllll"), "{g}");
        assert!(cells.contains("rrrrrrrr"), "{g}");
    }

    #[test]
    fn gantt_marks_lane_overlap() {
        let vpu = Lane::Vpu { worker: 0, dev: 1 };
        let events = [span(Phase::Exec, vpu, 0, 100), span(Phase::Exec, vpu, 0, 100)];
        let g = render_gantt(&events, SimTime::ZERO, 10);
        assert!(g.starts_with("vpu1 |##########|"), "{g}");
    }

    #[test]
    fn gantt_empty_input() {
        assert_eq!(render_gantt(&[], SimTime::ZERO, 40), "(empty trace)\n");
        // Events off the host/VPU rows draw nothing either.
        let root = span(Phase::UsbWrite, Lane::UsbRoot { worker: 0 }, 0, 10);
        assert_eq!(render_gantt(&[root], SimTime::ZERO, 40), "(empty trace)\n");
    }

    #[test]
    fn timeline_shows_heavy_overlap() {
        let t = timeline_with(4, 8);
        assert!(t.overlap_fraction > 0.6, "overlap only {}", t.overlap_fraction);
        assert!(t.gantt.contains("vpu0"));
        assert!(t.gantt.contains("vpu3"));
        assert!(t.gantt.contains("host0"));
        // 8 images on 4 sticks, pipelined: ~2 serial inferences + setup.
        assert!((190.0..240.0).contains(&t.makespan_ms), "makespan {}", t.makespan_ms);
    }

    #[test]
    fn single_device_has_no_overlap() {
        let t = timeline_with(1, 3);
        assert_eq!(t.overlap_fraction, 0.0);
    }
}
