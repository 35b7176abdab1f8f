//! One counter ledger for the server and the daemon.
//!
//! Every life-to-date counter the `{"control":"stats"}` reply reports
//! is a [`Counter`]. One static table gives each counter its
//! [`Section`] and wire key, in wire order, and [`Ledger::render`] is
//! the only code that turns a section into JSON. Values live in a
//! fixed array of atomics, all read and written with one memory
//! ordering.
//!
//! Two counters are gauges, moved both ways: `live` (resident cache
//! entries) and `resident_bytes` (family-snapshot memory). The rest
//! only grow. Configuration is not a counter: a section's one setting
//! (a cache capacity, the daemon's line cap) is passed to `render` at
//! reply time and spliced in at its wire position.
//!
//! A [`Server`](crate::Server) owns the ledger for the `cache`,
//! `result_cache`, `server` and `certificates` sections and hands it
//! to both caches. Each daemon owns its own ledger for the `daemon`
//! section, so its `conns` count stays a per-daemon ordinal even when
//! daemons share a server.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// The one memory ordering every counter uses.
const ORDER: Ordering = Ordering::SeqCst;

/// A section of the `stats` reply, in reply order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    Cache,
    ResultCache,
    Daemon,
    Server,
    Certificates,
}

impl Section {
    /// Every section, in reply order.
    pub const ALL: [Section; 5] = [
        Section::Cache,
        Section::ResultCache,
        Section::Daemon,
        Section::Server,
        Section::Certificates,
    ];

    /// The section's key in the `stats` reply.
    pub fn key(self) -> &'static str {
        match self {
            Section::Cache => "cache",
            Section::ResultCache => "result_cache",
            Section::Daemon => "daemon",
            Section::Server => "server",
            Section::Certificates => "certificates",
        }
    }

    /// The section's setting, if it has one: its key and the counter
    /// it follows on the wire.
    fn setting(self) -> Option<(&'static str, Counter)> {
        match self {
            Section::Cache => Some(("cap", Counter::CacheLive)),
            Section::ResultCache => Some(("cap", Counter::ResultLive)),
            Section::Daemon => Some(("max_line_bytes", Counter::LineBytesRead)),
            Section::Server | Section::Certificates => None,
        }
    }
}

/// Declares [`Counter`] and its table from one list, in wire order.
macro_rules! counters {
    ($($(#[$doc:meta])* $counter:ident => $section:ident $key:literal,)*) => {
        /// One life-to-date counter, declared in wire order; the
        /// discriminant indexes the value array and `COUNTERS`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $counter,)*
        }

        /// Each counter's section and wire key, indexed by [`Counter`].
        const COUNTERS: &[(Section, &str)] = &[$((Section::$section, $key),)*];
    };
}

counters! {
    /// Program-cache probes; `hits + misses == lookups`.
    CacheLookups => Cache "lookups",
    CacheHits => Cache "hits",
    CacheMisses => Cache "misses",
    /// Programs inserted; `insertions - evictions == live`.
    CacheInsertions => Cache "insertions",
    CacheEvictions => Cache "evictions",
    /// Gauge: programs resident.
    CacheLive => Cache "live",
    /// Full-key result-cache probes, one per routed request.
    ResultLookups => ResultCache "lookups",
    /// Requests served verbatim from a cached outcome.
    ResultHits => ResultCache "hits",
    /// Requests served by replaying only the trailing update.
    ResultDeltas => ResultCache "deltas",
    /// Routed requests that ran the full pipeline (every fallback
    /// included); `hits + deltas + misses == lookups`.
    ResultMisses => ResultCache "misses",
    /// Slots resolved `Ready` by their filler.
    ResultInsertions => ResultCache "insertions",
    ResultEvictions => ResultCache "evictions",
    /// Gauge: result-cache entries resident (full and family, any
    /// state).
    ResultLive => ResultCache "live",
    /// Gauge: bytes held by resident family snapshots, the same bytes
    /// charged against the shared ceiling.
    ResultResidentBytes => ResultCache "resident_bytes",
    /// Connections accepted; the previous value is the connection's
    /// dense ordinal, the coordinate chaos plans aim at.
    Conns => Daemon "conns",
    /// Handler panics contained by `catch_unwind`.
    PanicsRecovered => Daemon "panics_recovered",
    /// Lines refused before reaching the server: oversized, malformed
    /// JSON, bad request shapes, unknown controls, injected garbage.
    LinesRejected => Daemon "lines_rejected",
    /// Request-line bytes read off sockets, newlines and discarded
    /// overflow included.
    LineBytesRead => Daemon "line_bytes_read",
    /// Read deadlines that fired.
    IoTimeouts => Daemon "io_timeouts",
    /// Chaos: responses computed and then not written.
    Dropped => Daemon "dropped",
    /// Chaos: simulated read-deadline firings.
    Stalled => Daemon "stalled",
    /// Chaos: garbage lines injected ahead of real requests.
    GarbageInjected => Daemon "garbage_injected",
    /// Chaos: responses truncated to their first half.
    ShortWrites => Daemon "short_writes",
    /// Requests shed with an `overloaded` response.
    Shed => Server "shed",
    /// Execution attempts beyond the first, spent on engine faults.
    Retried => Server "retried",
    /// Admissions whose program carried a closed certificate.
    CertCertified => Certificates "certified",
    /// Admissions that fell back to the metered path (`cost: open`).
    CertOpen => Certificates "open",
    /// Requests rejected with `over-certificate`, a subset of
    /// `certified`.
    CertRejected => Certificates "rejected",
}

/// Life-to-date counter values.
#[derive(Debug, Default)]
pub struct Ledger {
    values: [AtomicU64; COUNTERS.len()],
}

impl Ledger {
    /// Add `n` to `counter`, returning its previous value.
    pub fn add(&self, counter: Counter, n: u64) -> u64 {
        self.values[counter as usize].fetch_add(n, ORDER)
    }

    /// Lower the gauge `counter` by `n`.
    pub fn sub(&self, counter: Counter, n: u64) {
        self.values[counter as usize].fetch_sub(n, ORDER);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize].load(ORDER)
    }

    /// The wire form of `section`: its counters in table order, with
    /// the section's setting (if it has one) after the counter it
    /// follows.
    pub fn render(&self, section: Section, setting: Option<u64>) -> Json {
        let mut fields = Vec::new();
        for (i, &(s, key)) in COUNTERS.iter().enumerate() {
            if s != section {
                continue;
            }
            let value = self.values[i].load(ORDER);
            fields.push((key.to_string(), Json::Num(value as f64)));
            if let (Some((key, after)), Some(value)) = (section.setting(), setting) {
                if after as usize == i {
                    fields.push((key.to_string(), Json::Num(value as f64)));
                }
            }
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_render_in_wire_order_with_their_setting() {
        let ledger = Ledger::default();
        assert_eq!(ledger.add(Counter::Conns, 1), 0);
        assert_eq!(ledger.add(Counter::Conns, 1), 1);
        ledger.add(Counter::LineBytesRead, 40);
        ledger.add(Counter::ResultResidentBytes, 640);
        ledger.sub(Counter::ResultResidentBytes, 600);
        assert_eq!(
            ledger.render(Section::Daemon, Some(512)).to_string(),
            "{\"conns\":2,\"panics_recovered\":0,\"lines_rejected\":0,\"line_bytes_read\":40,\
             \"max_line_bytes\":512,\"io_timeouts\":0,\"dropped\":0,\"stalled\":0,\
             \"garbage_injected\":0,\"short_writes\":0}"
        );
        assert_eq!(
            ledger.render(Section::ResultCache, Some(8)).to_string(),
            "{\"lookups\":0,\"hits\":0,\"deltas\":0,\"misses\":0,\"insertions\":0,\
             \"evictions\":0,\"live\":0,\"cap\":8,\"resident_bytes\":40}"
        );
        assert_eq!(
            ledger.render(Section::Server, None).to_string(),
            "{\"shed\":0,\"retried\":0}"
        );
    }
}
