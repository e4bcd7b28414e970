//! Per-worker execution traces: the data behind the paper's Figures 2
//! and 3 (computation vs. synchronization/idle time per worker).

use crate::time::{to_secs, Time};

/// What a worker was doing during a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Executing loop iterations.
    Compute,
    /// Obtaining a chunk (scheduling overhead: RMA, lock, dispatch).
    Sched,
    /// Blocked in a barrier or waiting for peers (the implicit
    /// synchronization of Figure 2).
    Sync,
    /// Idle: no work left anywhere.
    Idle,
}

/// One timeline segment of one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Global worker id.
    pub worker: u32,
    /// Segment start (virtual ns).
    pub start: Time,
    /// Segment end (virtual ns).
    pub end: Time,
    /// Activity during the segment.
    pub kind: SegmentKind,
}

impl Segment {
    /// Segment duration.
    pub fn duration(&self) -> Time {
        self.end - self.start
    }
}

/// A full execution trace: segments from all workers, in recording order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    segments: Vec<Segment>,
    enabled: bool,
}

/// Aggregate times per activity for one worker or a whole trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActivityTotals {
    /// Total compute time.
    pub compute: Time,
    /// Total scheduling-overhead time.
    pub sched: Time,
    /// Total synchronization (barrier / peer-wait) time.
    pub sync: Time,
    /// Total idle time.
    pub idle: Time,
}

impl ActivityTotals {
    /// Sum of all activities.
    pub fn total(&self) -> Time {
        self.compute + self.sched + self.sync + self.idle
    }
}

impl Trace {
    /// A trace that records segments.
    pub fn recording() -> Self {
        Self { segments: Vec::new(), enabled: true }
    }

    /// A trace that drops everything (zero overhead for large sweeps).
    pub fn disabled() -> Self {
        Self { segments: Vec::new(), enabled: false }
    }

    /// Record a segment (no-op when disabled or empty).
    #[inline]
    pub fn record(&mut self, worker: u32, start: Time, end: Time, kind: SegmentKind) {
        if self.enabled && end > start {
            self.segments.push(Segment { worker, start, end, kind });
        }
    }

    /// All recorded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Activity totals for one worker.
    pub fn worker_totals(&self, worker: u32) -> ActivityTotals {
        let mut t = ActivityTotals::default();
        for s in self.segments.iter().filter(|s| s.worker == worker) {
            let d = s.duration();
            match s.kind {
                SegmentKind::Compute => t.compute += d,
                SegmentKind::Sched => t.sched += d,
                SegmentKind::Sync => t.sync += d,
                SegmentKind::Idle => t.idle += d,
            }
        }
        t
    }

    /// Activity totals across all workers.
    pub fn totals(&self) -> ActivityTotals {
        let mut t = ActivityTotals::default();
        for s in &self.segments {
            let d = s.duration();
            match s.kind {
                SegmentKind::Compute => t.compute += d,
                SegmentKind::Sched => t.sched += d,
                SegmentKind::Sync => t.sync += d,
                SegmentKind::Idle => t.idle += d,
            }
        }
        t
    }

    /// Latest segment end across all workers (the parallel loop time).
    pub fn makespan(&self) -> Time {
        self.segments.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// An ASCII Gantt chart with `width` columns — the shape of the
    /// paper's Figures 2/3. `#` compute, `s` scheduling, `.` sync/idle.
    pub fn gantt(&self, workers: u32, width: usize) -> String {
        let span = self.makespan().max(1);
        let mut out = String::new();
        for w in 0..workers {
            let mut row = vec![' '; width];
            for s in self.segments.iter().filter(|s| s.worker == w) {
                let a = (s.start as u128 * width as u128 / span as u128) as usize;
                let b =
                    ((s.end as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
                let ch = match s.kind {
                    SegmentKind::Compute => '#',
                    SegmentKind::Sched => 's',
                    SegmentKind::Sync | SegmentKind::Idle => '.',
                };
                for c in row.iter_mut().take(b).skip(a) {
                    // Compute wins over sched wins over idle when segments
                    // round into the same cell.
                    let keep = matches!(*c, '#') || (*c == 's' && ch == '.');
                    if !keep {
                        *c = ch;
                    }
                }
            }
            out.push_str(&format!("worker {w:>3} |{}|\n", row.iter().collect::<String>()));
        }
        out
    }

    /// Per-worker `(compute, sched, sync+idle)` rows in seconds — the
    /// numeric form of Figures 2/3.
    pub fn figure_rows(&self, workers: u32) -> Vec<(u32, f64, f64, f64)> {
        (0..workers)
            .map(|w| {
                let t = self.worker_totals(w);
                (w, to_secs(t.compute), to_secs(t.sched), to_secs(t.sync + t.idle))
            })
            .collect()
    }

    /// Serialise the trace as CSV (`worker,start_ns,end_ns,kind`), for
    /// external plotting tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("worker,start_ns,end_ns,kind\n");
        for s in &self.segments {
            let kind = match s.kind {
                SegmentKind::Compute => "compute",
                SegmentKind::Sched => "sched",
                SegmentKind::Sync => "sync",
                SegmentKind::Idle => "idle",
            };
            out.push_str(&format!("{},{},{},{}\n", s.worker, s.start, s.end, kind));
        }
        out
    }

    /// Render the trace as a standalone SVG Gantt chart (one row per
    /// worker; green = compute, orange = scheduling, grey = sync/idle).
    pub fn to_svg(&self, workers: u32, width: u32) -> String {
        let span = self.makespan().max(1);
        let row_h = 18u32;
        let gap = 4u32;
        let label_w = 70u32;
        let height = workers * (row_h + gap) + gap + 24;
        let mut svg = format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{height}" font-family="monospace" font-size="11">"#,
            w = width + label_w + 10
        );
        svg.push_str(&format!(
            r#"<text x="4" y="14">t_end = {}</text>"#,
            crate::time::fmt_secs(span)
        ));
        for w in 0..workers {
            let y = 24 + w * (row_h + gap);
            svg.push_str(&format!(r#"<text x="4" y="{}">w{w}</text>"#, y + row_h - 5));
            svg.push_str(&format!(
                r##"<rect x="{label_w}" y="{y}" width="{width}" height="{row_h}" fill="#f2f2f2"/>"##
            ));
            for s in self.segments.iter().filter(|s| s.worker == w) {
                let x = label_w as u64 + s.start * u64::from(width) / span;
                let seg_w = ((s.end - s.start) * u64::from(width)).div_ceil(span).max(1);
                let color = match s.kind {
                    SegmentKind::Compute => "#4caf50",
                    SegmentKind::Sched => "#ff9800",
                    SegmentKind::Sync => "#9e9e9e",
                    SegmentKind::Idle => "#cfcfcf",
                };
                svg.push_str(&format!(
                    r##"<rect x="{x}" y="{y}" width="{seg_w}" height="{row_h}" fill="{color}"/>"##
                ));
            }
        }
        svg.push_str("</svg>");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_by_kind() {
        let mut tr = Trace::recording();
        tr.record(0, 0, 10, SegmentKind::Compute);
        tr.record(0, 10, 12, SegmentKind::Sched);
        tr.record(0, 12, 20, SegmentKind::Sync);
        tr.record(1, 0, 20, SegmentKind::Compute);
        let t0 = tr.worker_totals(0);
        assert_eq!((t0.compute, t0.sched, t0.sync, t0.idle), (10, 2, 8, 0));
        let all = tr.totals();
        assert_eq!(all.compute, 30);
        assert_eq!(tr.makespan(), 20);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.record(0, 0, 10, SegmentKind::Compute);
        assert!(tr.segments().is_empty());
        assert_eq!(tr.makespan(), 0);
    }

    #[test]
    fn empty_segments_dropped() {
        let mut tr = Trace::recording();
        tr.record(0, 5, 5, SegmentKind::Idle);
        assert!(tr.segments().is_empty());
    }

    #[test]
    fn overhead_fraction() {
        let mut tr = Trace::recording();
        tr.record(0, 0, 75, SegmentKind::Compute);
        tr.record(0, 75, 100, SegmentKind::Sync);
        // Figures 2/3 plot the share of a worker's time not spent computing.
        let t = tr.worker_totals(0);
        assert_eq!((t.total(), t.total() - t.compute), (100, 25));
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tr = Trace::recording();
        tr.record(0, 0, 50, SegmentKind::Compute);
        tr.record(0, 50, 100, SegmentKind::Sync);
        tr.record(1, 0, 100, SegmentKind::Compute);
        let g = tr.gantt(2, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[0].contains('.'));
        assert!(!lines[1].contains('.'));
    }

    #[test]
    fn csv_writes_one_row_per_segment() {
        let mut tr = Trace::recording();
        tr.record(0, 0, 10, SegmentKind::Compute);
        tr.record(1, 5, 9, SegmentKind::Sched);
        tr.record(0, 10, 30, SegmentKind::Sync);
        tr.record(1, 9, 12, SegmentKind::Idle);
        assert_eq!(
            tr.to_csv(),
            "worker,start_ns,end_ns,kind\n0,0,10,compute\n1,5,9,sched\n0,10,30,sync\n1,9,12,idle\n"
        );
    }

    #[test]
    fn svg_has_a_rect_per_segment_plus_backgrounds() {
        let mut tr = Trace::recording();
        tr.record(0, 0, 50, SegmentKind::Compute);
        tr.record(0, 50, 100, SegmentKind::Sync);
        tr.record(1, 0, 100, SegmentKind::Compute);
        let svg = tr.to_svg(2, 400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // 2 background rows + 3 segments.
        assert_eq!(svg.matches("<rect").count(), 5);
        assert!(svg.contains("#4caf50"));
        assert!(svg.contains("#9e9e9e"));
    }

    #[test]
    fn figure_rows_in_seconds() {
        let mut tr = Trace::recording();
        tr.record(0, 0, crate::time::SEC, SegmentKind::Compute);
        let rows = tr.figure_rows(1);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 1.0).abs() < 1e-12);
    }
}
