//! Per-site capacity models.
//!
//! §2 of the paper: "anycast is unaware of server load". The control
//! plane's first ingredient is making load *visible*: every front-end
//! site gets a capacity budget in queries per control epoch. Sites with
//! no configured budget are uncapacitated (`+inf`) — the plan stays
//! byte-for-byte inert until an operator actually sets a number, which
//! is what keeps the control plane's knobs-off default exactly today's
//! behaviour.

use std::collections::BTreeMap;

use anycast_netsim::SiteId;

/// Capacity budgets for the front-end fleet, in answered queries per
/// control epoch.
///
/// Degenerate budgets are sanitized on entry the same way
/// [`anycast_core::loadaware::SiteLoad::effective_capacity`] guards them:
/// `NaN` and negative values become `0.0` (a site that can hold nothing),
/// and `+inf` means uncapacitated. Unlisted sites are uncapacitated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityPlan {
    caps: BTreeMap<SiteId, f64>,
}

impl CapacityPlan {
    /// An empty plan: every site uncapacitated, the control plane inert.
    pub fn new() -> CapacityPlan {
        CapacityPlan::default()
    }

    /// Sets one site's budget, sanitizing degenerate values to zero.
    pub fn set(&mut self, site: SiteId, queries_per_epoch: f64) -> &mut Self {
        let cap = if queries_per_epoch.is_nan() || queries_per_epoch < 0.0 {
            0.0
        } else {
            queries_per_epoch
        };
        self.caps.insert(site, cap);
        self
    }

    /// The budget planned against for `site` (`+inf` when unlisted).
    pub fn get(&self, site: SiteId) -> f64 {
        self.caps.get(&site).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether no site has a budget — the inert, knobs-off state.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Configured budgets, ascending by site id.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, f64)> + '_ {
        self.caps.iter().map(|(&s, &c)| (s, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_budgets_are_sanitized() {
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), f64::NAN)
            .set(SiteId(1), -50.0)
            .set(SiteId(2), 100.0);
        assert_eq!(plan.get(SiteId(0)), 0.0);
        assert_eq!(plan.get(SiteId(1)), 0.0);
        assert_eq!(plan.get(SiteId(2)), 100.0);
        assert_eq!(
            plan.get(SiteId(9)),
            f64::INFINITY,
            "unlisted = uncapacitated"
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = CapacityPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.get(SiteId(0)), f64::INFINITY);
        assert_eq!(plan.iter().count(), 0);
    }
}
