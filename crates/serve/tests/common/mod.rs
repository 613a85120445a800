//! The reference a served answer is checked against: the source table's
//! own match plus the addressing plan, with no server in between.

use std::net::Ipv4Addr;

use anycast_beacon::Target;
use anycast_core::prediction::{GroupKey, Grouping, PredictionTable};
use anycast_dns::ecs::EcsOption;
use anycast_dns::LdnsId;
use anycast_netsim::CdnAddressing;
use anycast_serve::CompiledTable;

/// The TTL every table under test serves.
pub const TTL_S: u32 = 60;

/// A trained table and the plan its answers are addressed in.
pub struct Reference {
    pub table: PredictionTable,
    pub grouping: Grouping,
    pub plan: CdnAddressing,
}

impl Reference {
    /// The table compiled for serving.
    pub fn compile(&self) -> CompiledTable {
        CompiledTable::compile(&self.table, self.grouping, self.plan, TTL_S, 1)
    }

    /// The `(addr, ttl_s, ecs_scope)` a query from `ldns` carrying `ecs`
    /// must be served: the address of the group
    /// [`PredictionTable::match_query`] picks (the anycast VIP on a miss),
    /// with the scope the matched key implies.
    pub fn answer(&self, ldns: LdnsId, ecs: Option<&EcsOption>) -> (Ipv4Addr, u32, u8) {
        let matched = self
            .table
            .match_query(self.grouping, ldns, ecs.map(|e| e.prefix));
        let addr = match matched.map(|(_, c)| c.target) {
            Some(Target::Unicast(site)) => self.plan.site_ip(site),
            Some(Target::Anycast) | None => self.plan.anycast_ip(),
        };
        let matched_len = match matched {
            Some((GroupKey::Ecs(p), _)) => Some(p.len()),
            _ => None,
        };
        (addr, TTL_S, self.grouping.answer_scope(matched_len))
    }
}
