//! Simulation time.
//!
//! The study spans calendar time: Figure 5 is a month of daily analyses,
//! Figure 7 a week keyed by weekday. [`Day`] is the simulation's coarse
//! clock.

/// Day of the week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    const ALL: [Weekday; 7] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
        Weekday::Sun,
    ];

    /// Whether this is Saturday or Sunday — the churn-damped days of
    /// Figure 7.
    pub fn is_weekend(&self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }

    /// Three-letter label.
    pub fn label(&self) -> &'static str {
        match self {
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
            Weekday::Sun => "Sun",
        }
    }
}

impl std::fmt::Display for Weekday {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A simulated calendar day, counted from the experiment epoch.
///
/// Day 0 is a **Wednesday**, matching Figure 7's x-axis (Wed…Tue). The
/// Figure 5/6 experiments run over 28 consecutive days, the Figure 7/8
/// experiments over one 7-day week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Day(pub u32);

impl Day {
    /// The weekday this day falls on.
    pub fn weekday(&self) -> Weekday {
        // Wednesday has index 2 in ALL.
        let idx = (2 + self.0 as usize) % 7;
        Weekday::ALL[idx]
    }

    /// The next day.
    pub fn next(&self) -> Day {
        Day(self.0 + 1)
    }

    /// Iterator over `count` days starting at this one.
    pub fn span(&self, count: u32) -> impl Iterator<Item = Day> {
        let start = self.0;
        (start..start + count).map(Day)
    }
}

impl std::fmt::Display for Day {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "day{}({})", self.0, self.weekday())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_zero_is_wednesday() {
        assert_eq!(Day(0).weekday(), Weekday::Wed);
        assert_eq!(Day(1).weekday(), Weekday::Thu);
        assert_eq!(Day(3).weekday(), Weekday::Sat);
        assert!(Day(3).weekday().is_weekend());
        assert!(Day(4).weekday().is_weekend());
        assert_eq!(Day(5).weekday(), Weekday::Mon);
        assert_eq!(Day(7).weekday(), Weekday::Wed);
    }

    #[test]
    fn span_produces_consecutive_days() {
        let days: Vec<Day> = Day(3).span(4).collect();
        assert_eq!(days, vec![Day(3), Day(4), Day(5), Day(6)]);
        assert_eq!(Day(2).next(), Day(3));
    }

    #[test]
    fn week_has_two_weekend_days() {
        let weekends = Day(0).span(7).filter(|d| d.weekday().is_weekend()).count();
        assert_eq!(weekends, 2);
    }
}
