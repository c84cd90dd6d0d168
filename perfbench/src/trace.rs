//! The traced run's span store: spans recorded around the calls the
//! benchmark makes into each layer, kept in memory and written out as
//! JSONL when the run ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// Layer-qualified name, e.g. `wal.append`.
    pub name: String,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Job (position in the run's job sequence) the span belongs to.
    pub job: u64,
}

/// In-memory span store. Disabled stores record nothing, so the untraced
/// runs pay one branch per call site.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A store; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// µs since the epoch of `t`.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        job: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let (start_us, end_us) = (self.at(start), self.at(end));
        self.spans.push(Span {
            id,
            name: name.to_owned(),
            start_us,
            end_us,
            parent,
            job,
        });
        id
    }

    /// Open a span whose end is not known yet; [`Spans::close`] ends it.
    /// Returns its id (0 when disabled).
    pub fn open(&mut self, name: &str, start: Instant, parent: Option<u64>, job: u64) -> u64 {
        self.record(name, start, start, parent, job)
    }

    /// End a span opened with [`Spans::open`].
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_us = self.at(end);
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_us = end_us;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, job);
        out
    }

    /// An empty store sharing this one's epoch and switch, for another
    /// thread to record into before [`Spans::absorb`] merges it back.
    pub fn fork(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Merge a forked store back, renumbering its span ids.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u64;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Summed duration of spans named `name`, µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}\n",
                s.id, s.name, s.start_us, s.end_us, parent, s.job
            ));
        }
        out
    }
}
