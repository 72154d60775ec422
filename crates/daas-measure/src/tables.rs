//! The per-incident role ranks and per-account aggregates the §6
//! reports share, computed once per [`MeasureCtx`].
//!
//! Each role (victim, operator, affiliate) gets dense *ranks*: the
//! distinct accounts of the incident set sorted by address, and each
//! incident's index among them ([`eth_types::AddrRanks`]). Every
//! per-account aggregate is a vector indexed by rank, so reading one out
//! in rank order reads it in address order, the order every float sum
//! across accounts keeps (float addition does not reassociate, and the
//! artifact pins fix the last bit), while each entry accumulates in
//! incident (transaction) order. Months are ranks too: the distinct
//! calendar months, in order.
//!
//! [`MeasureCtx`]: crate::MeasureCtx

use daas_chain::{year_month, Timestamp};
use eth_types::{AddrRanks, Address};

use crate::incidents::MeasuredIncident;

/// See the module docs. Per-incident vectors follow the incident
/// (transaction) order; per-account vectors are indexed by rank.
#[derive(Debug)]
pub(crate) struct Tables {
    /// Distinct victims, sorted.
    pub(crate) victims: Vec<Address>,
    /// Distinct operators, sorted.
    pub(crate) operators: Vec<Address>,
    /// Distinct affiliates, sorted.
    pub(crate) affiliates: Vec<Address>,
    /// Per incident: the victim's rank.
    pub(crate) victim_of: Vec<u32>,
    /// Per incident: its timestamp.
    pub(crate) timestamps: Vec<Timestamp>,
    /// Per incident: its month's index into `months`.
    pub(crate) month_of: Vec<u32>,
    /// Distinct calendar months `(year, month)` of the incidents, in order.
    pub(crate) months: Vec<(i64, u32)>,
    /// Per victim: USD lost.
    pub(crate) loss_per_victim: Vec<f64>,
    /// Per victim: incidents.
    pub(crate) incidents_per_victim: Vec<u32>,
    /// Per operator: USD profit.
    pub(crate) profit_per_operator: Vec<f64>,
    /// Per affiliate: USD profit.
    pub(crate) profit_per_affiliate: Vec<f64>,
    /// Per affiliate: distinct victims.
    pub(crate) victims_per_affiliate: Vec<u32>,
    /// Per affiliate: distinct operators.
    pub(crate) operators_per_affiliate: Vec<u32>,
}

impl Tables {
    /// Builds every table from the incidents.
    pub(crate) fn new(incidents: &[MeasuredIncident]) -> Self {
        let rank = |role: fn(&MeasuredIncident) -> Address| {
            let mut ranks = AddrRanks::with_capacity(incidents.len());
            incidents.iter().for_each(|inc| ranks.push(role(inc)));
            ranks.finish()
        };
        let (victims, victim_of) = rank(|inc| inc.victim);
        let (operators, operator_of) = rank(|inc| inc.operator);
        let (affiliates, affiliate_of) = rank(|inc| inc.affiliate);
        let timestamps: Vec<Timestamp> = incidents.iter().map(|inc| inc.timestamp).collect();
        let (months, month_of) = month_ranks(&timestamps);

        let mut loss_per_victim = vec![0.0; victims.len()];
        let mut incidents_per_victim = vec![0u32; victims.len()];
        let mut profit_per_operator = vec![0.0; operators.len()];
        let mut profit_per_affiliate = vec![0.0; affiliates.len()];
        for (i, inc) in incidents.iter().enumerate() {
            let v = victim_of[i] as usize;
            loss_per_victim[v] += inc.usd;
            incidents_per_victim[v] += 1;
            profit_per_operator[operator_of[i] as usize] += inc.operator_usd;
            profit_per_affiliate[affiliate_of[i] as usize] += inc.affiliate_usd;
        }
        let victims_per_affiliate = distinct_per(&affiliate_of, &victim_of, affiliates.len());
        let operators_per_affiliate = distinct_per(&affiliate_of, &operator_of, affiliates.len());

        Tables {
            victims,
            operators,
            affiliates,
            victim_of,
            timestamps,
            month_of,
            months,
            loss_per_victim,
            incidents_per_victim,
            profit_per_operator,
            profit_per_affiliate,
            victims_per_affiliate,
            operators_per_affiliate,
        }
    }
}

/// For each of `keys` ranks, the number of distinct `values` ranks it
/// is paired with across the incidents.
pub(crate) fn distinct_per(keys: &[u32], values: &[u32], len: usize) -> Vec<u32> {
    let mut pairs: Vec<u64> =
        keys.iter().zip(values).map(|(&k, &v)| u64::from(k) << 32 | u64::from(v)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut counts = vec![0u32; len];
    for pair in pairs {
        counts[(pair >> 32) as usize] += 1;
    }
    counts
}

/// The distinct months of `timestamps`, in order, and each one's index.
fn month_ranks(timestamps: &[Timestamp]) -> (Vec<(i64, u32)>, Vec<u32>) {
    // Incidents come in time order, so runs of them share a day: convert
    // each run once.
    let days: Vec<(usize, (i64, u32))> = timestamps
        .chunk_by(|a, b| a / 86_400 == b / 86_400)
        .map(|day| (day.len(), year_month(day[0])))
        .collect();
    let mut months: Vec<(i64, u32)> = days.iter().map(|&(_, month)| month).collect();
    months.sort_unstable();
    months.dedup();
    let month_of = days
        .iter()
        .flat_map(|(len, month)| {
            let m = months.binary_search(month).expect("every day has a month");
            std::iter::repeat_n(m as u32, *len)
        })
        .collect();
    (months, month_of)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use daas_chain::Chain;
    use daas_detector::Dataset;
    use daas_pricing::Oracle;
    use eth_types::units::ether;

    use crate::incidents::{MeasureCtx, MeasuredIncident};
    use crate::stats::Concentration;

    /// Per role, three accounts the chain interns in descending address
    /// order, and incidents that name them in that order too, so ids in
    /// first-intern (or first-seen) order run against address order.
    /// The smallest address takes `big` and the two others half an ulp
    /// of it each: in address order `big + s + s` rounds to `big`, in id
    /// order `s + s + big` does not.
    #[test]
    fn sums_run_in_address_order_whatever_the_intern_order() {
        let big = (1u64 << 60) as f64;
        let s = 128.0;
        assert_eq!(big + s + s, big);
        assert_ne!(s + s + big, big);

        let mut chain = Chain::new();
        let funder = chain.create_eoa_funded(b"fo/funder", ether(10)).unwrap();
        let mut roles: Vec<[eth_types::Address; 3]> = Vec::new();
        for role in ["victim", "operator", "affiliate"] {
            let mut trio: [eth_types::Address; 3] = std::array::from_fn(|i| {
                chain.create_eoa(format!("fo/{role}{i}").as_bytes()).unwrap()
            });
            trio.sort_unstable();
            trio.reverse();
            for &account in &trio {
                chain.transfer_eth(funder, account, ether(1)).unwrap();
            }
            let ids: Vec<_> = trio.iter().map(|&a| chain.addr_id(a).unwrap()).collect();
            assert!(ids[0] < ids[1] && ids[1] < ids[2], "interned in descending address order");
            roles.push(trio);
        }
        let [victims, operators, affiliates] = [roles[0], roles[1], roles[2]];
        let values = [s, s, big];
        let incidents: Vec<MeasuredIncident> = (0..3)
            .map(|i| MeasuredIncident {
                tx: i as u32,
                timestamp: chain.now(),
                victim: victims[i],
                contract: funder,
                operator: operators[i],
                affiliate: affiliates[i],
                ratio_bps: 2000,
                usd: values[i],
                operator_usd: values[i],
                affiliate_usd: values[i],
            })
            .collect();
        let (dataset, oracle) = (Dataset::default(), Oracle::new());
        let ctx = MeasureCtx::from_incidents(&chain, &dataset, &oracle, Arc::new(incidents));

        let in_address_order = big + s + s;
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(ctx.victim_report().total_usd), bits(in_address_order));
        assert_eq!(bits(ctx.affiliate_report().total_usd), bits(in_address_order));
        assert_eq!(bits(ctx.operator_report().total_usd), bits(in_address_order));
        assert_eq!(bits(ctx.affiliate_report().concentration.total), bits(in_address_order));
        assert_eq!(bits(ctx.operator_report().concentration.total), bits(in_address_order));
        assert_eq!(bits(Concentration::from_values(&[s, s, big]).total), bits(in_address_order));
        assert_ne!(bits(s + s + big), bits(in_address_order), "id order would round differently");
    }
}
