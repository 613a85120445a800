//! The measurement backend: collected, joined beacon data.
//!
//! Two access patterns cover every analysis in the paper:
//!
//! * **per-execution** — Figure 3 compares, within one beacon run, the
//!   anycast fetch against the best of the three unicast fetches;
//! * **per-group per-target** — §5's daily medians and §6's prediction
//!   scheme aggregate latency distributions per client group (/24 prefix or
//!   LDNS) towards each target.

use anycast_netsim::stream::FastMap;
use anycast_netsim::{Day, Prefix24, SiteId};

use anycast_dns::LdnsId;

use crate::join::{BeaconMeasurement, Target};
use crate::slots::Slot;

/// One beacon run reassembled from its four measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconExecution {
    /// Execution counter (measurement id >> 2).
    pub execution: u64,
    /// Client /24.
    pub prefix: Prefix24,
    /// Resolver used.
    pub ldns: LdnsId,
    /// Day of the run.
    pub day: Day,
    /// Anycast measurement: `(served site, rtt)` if present.
    pub anycast: Option<(SiteId, f64)>,
    /// Unicast measurements: `(target site, rtt)`.
    pub unicast: Vec<(SiteId, f64)>,
}

impl BeaconExecution {
    /// The lowest-latency unicast measurement of this run.
    pub fn best_unicast(&self) -> Option<(SiteId, f64)> {
        self.unicast
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Figure 3's per-request quantity: anycast latency minus the best of
    /// the unicast latencies (positive = anycast was slower). `None` if the
    /// run is missing either side.
    pub fn anycast_penalty_ms(&self) -> Option<f64> {
        let (_, any) = self.anycast?;
        let (_, best) = self.best_unicast()?;
        Some(any - best)
    }
}

/// The joined dataset: the rows in arrival order, and where each day's
/// rows lie among them.
#[derive(Debug, Clone, Default)]
pub struct BeaconDataset {
    measurements: Vec<BeaconMeasurement>,
    /// The maximal runs of same-day rows as `(day, first row)`; a run ends
    /// where the next begins. A function of the rows alone, however they
    /// were split over `extend`s: one run per day of a campaign.
    runs: Vec<(Day, usize)>,
}

impl BeaconDataset {
    /// Creates an empty dataset.
    pub fn new() -> BeaconDataset {
        BeaconDataset::default()
    }

    /// Makes room for `additional` more measurements ahead of a run of
    /// [`extend`](BeaconDataset::extend)s.
    pub fn reserve(&mut self, additional: usize) {
        self.measurements.reserve(additional);
    }

    /// Appends joined measurements, opening a run wherever the day
    /// changes.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = BeaconMeasurement>) {
        let runs = &mut self.runs;
        let mut at = self.measurements.len();
        self.measurements.extend(rows.into_iter().inspect(|m| {
            if runs.last().map(|&(day, _)| day) != Some(m.day) {
                runs.push((m.day, at));
            }
            at += 1;
        }));
    }

    /// All measurements.
    pub fn measurements(&self) -> &[BeaconMeasurement] {
        &self.measurements
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }

    /// Measurements restricted to one day, in row order. Walks the day's
    /// runs, not the dataset.
    pub fn day(&self, day: Day) -> impl Iterator<Item = &BeaconMeasurement> + Clone {
        DayRows {
            head: [].iter(),
            later: self.day_slices(day),
        }
    }

    /// The rows of [`day`](Self::day) as the contiguous slices they are
    /// stored in, in row order — what a scan that wants to cut the day
    /// into ranges (the exact trainers) starts from.
    pub fn day_slices(&self, day: Day) -> impl Iterator<Item = &[BeaconMeasurement]> + Clone {
        let ends = self.runs.iter().skip(1).map(|&(_, first)| first);
        let runs = self.runs.iter().zip(ends.chain([self.measurements.len()]));
        runs.filter(move |((d, _), _)| *d == day)
            .map(|(&(_, start), end)| &self.measurements[start..end])
    }

    /// Reassembles executions (each beacon run's four measurements).
    /// Incomplete runs are kept — the analyses guard on missing sides.
    pub fn executions(&self) -> Vec<BeaconExecution> {
        let mut by_exec: FastMap<u64, BeaconExecution> = FastMap::default();
        for m in &self.measurements {
            let exec = Slot::execution_of(m.measurement_id);
            let entry = by_exec.entry(exec).or_insert_with(|| BeaconExecution {
                execution: exec,
                prefix: m.prefix,
                ldns: m.ldns,
                day: m.day,
                anycast: None,
                unicast: Vec::new(),
            });
            if m.failed {
                // A failed fetch contributes no latency; the run is simply
                // missing that side, like a lossy real-world report.
                continue;
            }
            match m.target {
                Target::Anycast => entry.anycast = Some((m.served_site, m.rtt_ms)),
                Target::Unicast(site) => entry.unicast.push((site, m.rtt_ms)),
            }
        }
        let mut out: Vec<BeaconExecution> = by_exec.into_values().collect();
        out.sort_by_key(|e| e.execution);
        out
    }

    /// Latency samples grouped by `(prefix, target)` for one day, in row
    /// order — the §5 per-/24 daily medians and the samples §6's
    /// evaluation compares a prediction on.
    pub fn by_prefix_target(&self, day: Day) -> FastMap<(Prefix24, Target), Vec<f64>> {
        let mut out: FastMap<(Prefix24, Target), Vec<f64>> = FastMap::default();
        for m in self.day(day) {
            if m.failed {
                continue;
            }
            out.entry((m.prefix, m.target)).or_default().push(m.rtt_ms);
        }
        out
    }

    /// The days present, ascending.
    pub fn days(&self) -> Vec<Day> {
        let mut days: Vec<Day> = self.runs.iter().map(|&(day, _)| day).collect();
        days.sort();
        days.dedup();
        days
    }
}

/// [`BeaconDataset::day`]: `Flatten` over slices without its back half,
/// which a caller pulling a row at a time (`evaluate_prediction`) pays for
/// per row.
#[derive(Clone)]
struct DayRows<'a, S> {
    head: std::slice::Iter<'a, BeaconMeasurement>,
    later: S,
}

impl<'a, S: Iterator<Item = &'a [BeaconMeasurement]>> Iterator for DayRows<'a, S> {
    type Item = &'a BeaconMeasurement;

    #[inline]
    fn next(&mut self) -> Option<&'a BeaconMeasurement> {
        loop {
            if let Some(m) = self.head.next() {
                return Some(m);
            }
            self.head = self.later.next()?.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::Prefix;
    use std::net::Ipv4Addr;

    fn m(
        exec: u64,
        slot: Slot,
        target: Target,
        served: u16,
        rtt: f64,
        day: u32,
    ) -> BeaconMeasurement {
        BeaconMeasurement {
            measurement_id: slot.id_for(exec),
            slot,
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1)),
            ldns: LdnsId(0),
            ecs: None,
            target,
            served_site: SiteId(served),
            rtt_ms: rtt,
            failed: false,
            day: Day(day),
            time_s: 0.0,
        }
    }

    fn full_run(exec: u64, any_rtt: f64, uni: [(u16, f64); 3], day: u32) -> Vec<BeaconMeasurement> {
        vec![
            m(exec, Slot::Anycast, Target::Anycast, 2, any_rtt, day),
            m(
                exec,
                Slot::GeoClosest,
                Target::Unicast(SiteId(uni[0].0)),
                uni[0].0,
                uni[0].1,
                day,
            ),
            m(
                exec,
                Slot::Random1,
                Target::Unicast(SiteId(uni[1].0)),
                uni[1].0,
                uni[1].1,
                day,
            ),
            m(
                exec,
                Slot::Random2,
                Target::Unicast(SiteId(uni[2].0)),
                uni[2].0,
                uni[2].1,
                day,
            ),
        ]
    }

    #[test]
    fn executions_reassemble() {
        let mut ds = BeaconDataset::new();
        ds.extend(full_run(0, 50.0, [(1, 40.0), (3, 60.0), (4, 45.0)], 0));
        ds.extend(full_run(1, 30.0, [(1, 35.0), (3, 33.0), (4, 90.0)], 0));
        let execs = ds.executions();
        assert_eq!(execs.len(), 2);
        assert_eq!(execs[0].unicast.len(), 3);
        assert_eq!(execs[0].anycast, Some((SiteId(2), 50.0)));
    }

    #[test]
    fn penalty_is_anycast_minus_best_unicast() {
        let mut ds = BeaconDataset::new();
        ds.extend(full_run(0, 50.0, [(1, 40.0), (3, 60.0), (4, 45.0)], 0));
        let e = &ds.executions()[0];
        assert_eq!(e.best_unicast(), Some((SiteId(1), 40.0)));
        assert_eq!(e.anycast_penalty_ms(), Some(10.0));
    }

    #[test]
    fn negative_penalty_when_anycast_wins() {
        let mut ds = BeaconDataset::new();
        ds.extend(full_run(0, 30.0, [(1, 40.0), (3, 60.0), (4, 45.0)], 0));
        assert_eq!(ds.executions()[0].anycast_penalty_ms(), Some(-10.0));
    }

    #[test]
    fn incomplete_run_yields_none_penalty() {
        let mut ds = BeaconDataset::new();
        ds.extend(vec![m(0, Slot::Anycast, Target::Anycast, 1, 50.0, 0)]);
        let e = &ds.executions()[0];
        assert_eq!(e.anycast_penalty_ms(), None);
        assert_eq!(e.best_unicast(), None);
    }

    #[test]
    fn grouping_by_prefix_and_day() {
        let mut ds = BeaconDataset::new();
        ds.extend(full_run(0, 50.0, [(1, 40.0), (3, 60.0), (4, 45.0)], 0));
        ds.extend(full_run(1, 55.0, [(1, 42.0), (3, 61.0), (4, 46.0)], 1));
        let day0 = ds.by_prefix_target(Day(0));
        let prefix = Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1));
        assert_eq!(day0[&(prefix, Target::Anycast)], vec![50.0]);
        assert_eq!(day0[&(prefix, Target::Unicast(SiteId(1)))], vec![40.0]);
        assert_eq!(ds.days(), vec![Day(0), Day(1)]);
    }

    #[test]
    fn failed_rows_count_towards_availability_not_latency() {
        let mut ds = BeaconDataset::new();
        ds.extend(full_run(0, 50.0, [(1, 40.0), (3, 60.0), (4, 45.0)], 0));
        let mut bad = m(1, Slot::Anycast, Target::Anycast, 2, 6000.0, 0);
        bad.failed = true;
        ds.extend(vec![bad]);
        let prefix = Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1));
        // Latency groupings exclude the failed row…
        assert_eq!(
            ds.by_prefix_target(Day(0))[&(prefix, Target::Anycast)],
            vec![50.0]
        );
        // …and the failed run's execution is missing its anycast side.
        assert_eq!(ds.executions()[1].anycast, None);
    }

    /// A row with its floats as bits beside it, so rows compare equal
    /// field for field even when a float is NaN.
    fn bits(m: &BeaconMeasurement) -> (BeaconMeasurement, u64, u64) {
        let rest = BeaconMeasurement {
            rtt_ms: 0.0,
            time_s: 0.0,
            ..*m
        };
        (rest, m.rtt_ms.to_bits(), m.time_s.to_bits())
    }

    #[test]
    fn packed_rows_come_back_unchanged() {
        let floats = [
            42.5,
            -0.0,
            f64::from_bits(1), // the least subnormal
            f64::INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
            f64::MAX,
        ];
        let targets = [
            Target::Anycast,
            Target::Unicast(SiteId(0)),
            Target::Unicast(SiteId(u16::MAX)),
        ];
        // One row per ECS value: `None`, then every length 0–32.
        let ecs =
            std::iter::once(None).chain((0..=32).map(|len| Some(Prefix::from_raw(u32::MAX, len))));
        let rows: Vec<BeaconMeasurement> = ecs
            .enumerate()
            .map(|(i, ecs)| {
                let slot = Slot::ALL[i % 4];
                BeaconMeasurement {
                    measurement_id: slot.id_for((u64::MAX >> 2) - i as u64),
                    slot,
                    prefix: Prefix24::from_raw(u32::MAX - i as u32 * 0x100),
                    ldns: LdnsId(u32::MAX - i as u32),
                    ecs,
                    target: targets[i % 3],
                    served_site: SiteId(u16::MAX - i as u16),
                    rtt_ms: floats[i % floats.len()],
                    failed: i % 2 == 1,
                    day: Day(if i < 17 { 3 } else { u32::MAX }),
                    time_s: floats[(i + 2) % floats.len()],
                }
            })
            .collect();
        let want: Vec<_> = rows.iter().map(bits).collect();
        let split = |cuts: &[usize]| {
            let mut ds = BeaconDataset::new();
            let mut from = 0;
            for &to in cuts.iter().chain([&rows.len()]) {
                ds.extend(rows[from..to].iter().copied());
                from = to;
            }
            ds
        };
        for cuts in [&[][..], &[1], &[17], &[20], &[5, 17], &[16, 18], &[0, 33]] {
            let ds = split(cuts);
            assert_eq!(ds.measurements().iter().map(bits).collect::<Vec<_>>(), want);
            assert_eq!(ds.days(), vec![Day(3), Day(u32::MAX)]);
            for (day, range) in [(Day(3), 0..17), (Day(u32::MAX), 17..34)] {
                let sliced: Vec<_> = ds.day_slices(day).flatten().map(bits).collect();
                assert_eq!(sliced, want[range.clone()], "{cuts:?}");
                assert_eq!(ds.day(day).map(bits).collect::<Vec<_>>(), want[range]);
            }
        }
    }

    #[test]
    fn run_index_is_a_function_of_the_rows() {
        // Every sequence of up to five `extend`s from a menu with an empty
        // batch, one-day batches (so a day arrives twice in a row) and
        // batches that change day inside.
        let menu: [&[u32]; 6] = [&[], &[0], &[0, 0], &[1], &[0, 1], &[2, 0, 0]];
        for len in 0..=5u32 {
            for mut code in 0..menu.len().pow(len) {
                let mut ds = BeaconDataset::new();
                let mut exec = 0u64;
                for _ in 0..len {
                    let batch = menu[code % menu.len()];
                    code /= menu.len();
                    ds.extend(batch.iter().map(|&day| {
                        exec += 1;
                        m(exec, Slot::Anycast, Target::Anycast, 1, exec as f64, day)
                    }));
                }
                let rows = ds.measurements();
                // One run per change of day, and none besides.
                let changes = (0..rows.len()).filter(|&i| i == 0 || rows[i].day != rows[i - 1].day);
                let want_runs: Vec<(Day, usize)> = changes.map(|i| (rows[i].day, i)).collect();
                assert_eq!(ds.runs, want_runs);
                let mut want_days: Vec<Day> = rows.iter().map(|r| r.day).collect();
                want_days.sort();
                want_days.dedup();
                assert_eq!(ds.days(), want_days);
                for day in (0..4).map(Day) {
                    let want: Vec<&BeaconMeasurement> =
                        rows.iter().filter(|r| r.day == day).collect();
                    let sliced: Vec<&BeaconMeasurement> = ds.day_slices(day).flatten().collect();
                    assert_eq!(sliced, want);
                    assert_eq!(ds.day(day).collect::<Vec<_>>(), want);
                    assert!(ds.day_slices(day).all(|slice| !slice.is_empty()));
                }
            }
        }
    }
}
