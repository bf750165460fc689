//! Chrome trace-event JSON exporter.
//!
//! Emits the JSON Array-with-metadata flavour of the [Trace Event
//! Format] that both `chrome://tracing` and [Perfetto] load directly:
//! one track (`tid`) per lane, complete spans as `ph:"X"` events,
//! instants as `ph:"i"`, and the request context under `args` so the
//! viewer's flow/search tools can follow one `request_id` across
//! tracks. The output is built byte-by-byte from integers only, so two
//! runs of the same seeded config serialize identically.
//!
//! Two entry points share one serializer:
//!
//! - [`ChromeWriter`] streams event-at-a-time into any [`io::Write`]
//!   sink with bounded memory (one scratch row, reused), for runs too
//!   large to buffer;
//! - [`chrome_trace`] buffers the whole document into a `String` by
//!   delegating to the same writer, so the buffered and streamed bytes
//!   are identical by construction.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use crate::event::{Event, Lane, Phase};
use crate::prof::WriteStats;
use crate::recorder::EventLog;
use std::fmt::Write as _;
use std::io;

/// Append `ns` as microseconds with a fixed 3-decimal nanosecond
/// remainder — exact and deterministic (no float formatting).
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Append the `args` object of `ev`: its context, cause and reading.
fn push_args(out: &mut String, ev: &Event) {
    out.push_str(",\"args\":{");
    let mut sep = "";
    let mut field = |out: &mut String, key: &str, v: &dyn std::fmt::Display| {
        let _ = write!(out, "{sep}\"{key}\":{v}");
        sep = ",";
    };
    if let Some(r) = ev.ctx.request_id {
        field(out, "request_id", &r);
    }
    if let Some(b) = ev.ctx.batch_id {
        field(out, "batch_id", &b);
    }
    if let Some(w) = ev.ctx.worker {
        field(out, "worker", &w);
    }
    if let Some(c) = ev.cause {
        field(out, "cause", &format_args!("\"{}\"", c.name()));
    }
    if let Some(v) = ev.value {
        field(out, "mw", &v);
    }
    out.push_str("}}");
}

/// Incremental Chrome-trace serializer over any [`io::Write`] sink.
///
/// Construction writes the document header and one metadata row per
/// lane; [`event`](Self::event) appends one row per call through a
/// reused scratch buffer (memory stays bounded by the longest single
/// row, not the run length); [`finish`](Self::finish) closes the JSON
/// and returns the [`WriteStats`] ledger.
pub struct ChromeWriter<W: io::Write> {
    sink: W,
    lanes: Vec<Lane>,
    row: String,
    stats: WriteStats,
}

impl<W: io::Write> ChromeWriter<W> {
    /// Start a trace document over `sink` for the given lane set (track
    /// order and `tid` assignment follow `lanes`; use
    /// [`EventLog::lanes`] for first-appearance order).
    pub fn new(mut sink: W, lanes: &[Lane]) -> io::Result<ChromeWriter<W>> {
        let mut stats = WriteStats::default();
        let mut row = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        row.push_str(
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"ncsw\"}}",
        );
        for (tid, lane) in lanes.iter().enumerate() {
            let _ = write!(
                row,
                ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                lane.name()
            );
            let _ = write!(
                row,
                ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                lane.sort_rank()
            );
        }
        stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
        sink.write_all(row.as_bytes())?;
        stats.bytes += row.len() as u64;
        row.clear();
        Ok(ChromeWriter { sink, lanes: lanes.to_vec(), row, stats })
    }

    /// Append one event row. Events must belong to a lane passed at
    /// construction; an unknown lane is an error (the document header
    /// with its track metadata is already on the wire).
    pub fn event(&mut self, ev: &Event) -> io::Result<()> {
        let tid = self.lanes.iter().position(|&l| l == ev.lane).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("lane {} not declared to ChromeWriter", ev.lane.name()),
            )
        })?;
        let row = &mut self.row;
        row.clear();
        // Counter events: Perfetto keys counter tracks by (pid, name), so
        // the lane's own name doubles as the counter name.
        let counter = ev.phase == Phase::PowerSample;
        let ph = match ev.end {
            _ if counter => 'C',
            Some(_) => 'X',
            None => 'i',
        };
        let _ = write!(row, ",\n{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":");
        push_us(row, ev.start.nanos());
        if counter {
            let _ = write!(row, ",\"name\":\"{}\"", ev.lane.name());
        } else {
            match ev.end {
                Some(end) => {
                    row.push_str(",\"dur\":");
                    push_us(row, end.nanos() - ev.start.nanos());
                }
                None => row.push_str(",\"s\":\"t\""),
            }
            let _ = write!(row, ",\"name\":\"{}\"", ev.phase.name());
        }
        push_args(row, ev);
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.row.len() as u64);
        self.sink.write_all(self.row.as_bytes())?;
        self.stats.bytes += self.row.len() as u64;
        Ok(())
    }

    /// Append a `sampling` metadata row carrying the tail-sampling
    /// keep/drop ledger, so `validate-trace` can report what a sampled
    /// trace kept. Only sampled documents carry this row — all-keep and
    /// unsampled exports must stay byte-identical.
    pub fn sampling(&mut self, stats: &crate::sample::SampleStats) -> io::Result<()> {
        self.row.clear();
        let _ = write!(
            self.row,
            ",\n{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"sampling\",\"args\":{{\
             \"spec\":\"{}\",\"requests_seen\":{},\"requests_kept\":{},\
             \"slo\":{},\"shed\":{},\"fault\":{},\"hedge\":{},\"quarantine\":{},\
             \"uniform\":{},\"reservoir\":{},\"unterminated\":{},\
             \"events_seen\":{},\"events_kept\":{}}}}}",
            stats.spec,
            stats.requests_seen,
            stats.requests_kept,
            stats.slo,
            stats.shed,
            stats.fault,
            stats.hedge,
            stats.quarantine,
            stats.uniform,
            stats.reservoir,
            stats.unterminated,
            stats.events_seen,
            stats.events_kept,
        );
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.row.len() as u64);
        self.sink.write_all(self.row.as_bytes())?;
        self.stats.bytes += self.row.len() as u64;
        Ok(())
    }

    /// Close the JSON document, flush, and return the write ledger.
    pub fn finish(mut self) -> io::Result<WriteStats> {
        let tail = "\n]}\n";
        self.sink.write_all(tail.as_bytes())?;
        self.stats.bytes += tail.len() as u64;
        self.sink.flush()?;
        Ok(self.stats)
    }
}

/// Stream `log` as a Chrome trace-event JSON document into `sink`.
pub fn chrome_trace_to<W: io::Write>(log: &EventLog, sink: W) -> io::Result<WriteStats> {
    let mut w = ChromeWriter::new(sink, &log.lanes())?;
    for ev in log.events() {
        w.event(ev)?;
    }
    w.finish()
}

/// Serialize `log` as a Chrome trace-event JSON document.
///
/// Buffered convenience over [`chrome_trace_to`]: the bytes are
/// produced by the same streaming writer.
pub fn chrome_trace(log: &EventLog) -> String {
    let mut buf = Vec::new();
    chrome_trace_to(log, &mut buf).expect("Vec<u8> sink cannot fail");
    String::from_utf8(buf).expect("chrome trace is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Ctx, Lane, Phase};
    use crate::recorder::Recorder;
    use desim::SimTime;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1_500), Ctx::request(0)));
        log.record(Event::span(
            Phase::Exec,
            Lane::Vpu { worker: 0, dev: 2 },
            SimTime(2_000),
            SimTime(102_500),
            Ctx::request(0).with_batch(1).with_worker(0),
        ));
        log
    }

    #[test]
    fn exports_tracks_spans_and_instants() {
        let json = chrome_trace(&sample_log());
        assert!(json.contains("\"displayTimeUnit\":\"ms\""), "{json}");
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"server\"}"), "{json}");
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"w0.vpu2\"}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"ts\":2.000,\"dur\":100.500"), "{json}");
        assert!(json.contains("\"args\":{\"request_id\":0,\"batch_id\":1,\"worker\":0}"), "{json}");
    }

    #[test]
    fn shed_cause_lands_in_args() {
        use crate::event::ShedCause;
        let mut log = EventLog::new();
        log.record(
            Event::instant(Phase::Shed, Lane::Server, SimTime(10), Ctx::request(3))
                .with_cause(ShedCause::Deadline),
        );
        let json = chrome_trace(&log);
        assert!(json.contains("\"args\":{\"request_id\":3,\"cause\":\"deadline\"}"), "{json}");
    }

    #[test]
    fn power_samples_export_as_counter_events() {
        let mut log = EventLog::new();
        log.record(Event::counter(Lane::Power(0), SimTime(0), 172, Ctx::NONE));
        log.record(Event::counter(Lane::Power(0), SimTime(2_000), 900, Ctx::NONE.with_batch(4)));
        let json = chrome_trace(&log);
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"w0.power\"}"), "{json}");
        assert!(
            json.contains("\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"w0.power\",\"args\":{\"mw\":172}"),
            "{json}"
        );
        assert!(
            json.contains(
                "\"ts\":2.000,\"name\":\"w0.power\",\"args\":{\"batch_id\":4,\"mw\":900}"
            ),
            "{json}"
        );
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        let us = |ns| {
            let mut out = String::new();
            push_us(&mut out, ns);
            out
        };
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(12_345_678), "12345.678");
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&sample_log()), chrome_trace(&sample_log()));
    }

    #[test]
    fn streaming_event_at_a_time_matches_buffered() {
        let log = sample_log();
        let buffered = chrome_trace(&log);
        // Drive the writer one event per call, through a sink that only
        // accepts one byte per write() to exercise short writes too.
        struct OneByte(Vec<u8>);
        impl std::io::Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = OneByte(Vec::new());
        let mut w = ChromeWriter::new(&mut sink, &log.lanes()).unwrap();
        for ev in log.events() {
            w.event(ev).unwrap();
        }
        let stats = w.finish().unwrap();
        let streamed = String::from_utf8(sink.0).unwrap();
        assert_eq!(streamed, buffered);
        assert_eq!(stats.bytes, buffered.len() as u64);
        assert!(stats.peak_buffered > 0);
        assert!(stats.peak_buffered < buffered.len() as u64);
    }

    #[test]
    fn sampling_metadata_row_round_trips_the_ledger() {
        use crate::sample::SampleStats;
        let log = sample_log();
        let stats = SampleStats {
            spec: "1-in-100".into(),
            requests_seen: 200,
            requests_kept: 9,
            slo: 1,
            shed: 2,
            uniform: 3,
            reservoir: 3,
            events_seen: 1000,
            events_kept: 45,
            ..SampleStats::default()
        };
        let mut buf = Vec::new();
        let mut w = ChromeWriter::new(&mut buf, &log.lanes()).unwrap();
        w.sampling(&stats).unwrap();
        for ev in log.events() {
            w.event(ev).unwrap();
        }
        w.finish().unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"name\":\"sampling\",\"args\":{\"spec\":\"1-in-100\""), "{json}");
        assert!(json.contains("\"requests_seen\":200,\"requests_kept\":9"), "{json}");
        assert!(json.contains("\"events_seen\":1000,\"events_kept\":45"), "{json}");
    }

    #[test]
    fn unknown_lane_is_an_error() {
        let mut w = ChromeWriter::new(Vec::new(), &[Lane::Server]).unwrap();
        let err = w
            .event(&Event::instant(Phase::Arrive, Lane::Queue, SimTime(0), Ctx::NONE))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
