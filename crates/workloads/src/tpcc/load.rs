//! Initial TPC-C database population.

use std::sync::Arc;

use dynastar_core::{LocKey, VarId};

use super::schema::{
    customer_var, district_key, district_var, stock_var, warehouse_key, warehouse_var, CustomerRow,
    DistrictRow, StockRow, TpccScale, TpccValue, WarehouseRow, DISTRICTS_PER_WAREHOUSE,
};

/// All locality keys of a TPC-C database at `scale` (one per district and
/// one per warehouse — the paper's workload-graph vertices).
pub fn keys(scale: &TpccScale) -> Vec<LocKey> {
    let mut out = Vec::new();
    for w in 0..scale.warehouses {
        out.push(warehouse_key(w));
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            out.push(district_key(w, d));
        }
    }
    out
}

/// All initial rows of a TPC-C database at `scale`.
pub fn rows(scale: &TpccScale) -> Vec<(VarId, Arc<TpccValue>)> {
    let mut out = Vec::new();
    for w in 0..scale.warehouses {
        out.push((warehouse_var(w), Arc::new(TpccValue::Warehouse(WarehouseRow::default()))));
        for item in 0..scale.items {
            out.push((stock_var(w, item), Arc::new(TpccValue::Stock(StockRow::default()))));
        }
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            out.push((district_var(w, d), Arc::new(TpccValue::District(DistrictRow::default()))));
            for c in 0..scale.customers_per_district {
                out.push((
                    customer_var(w, d, c),
                    Arc::new(TpccValue::Customer(CustomerRow::default())),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::schema::locality;

    #[test]
    fn load_produces_expected_counts() {
        let scale = TpccScale { warehouses: 2, customers_per_district: 5, items: 10 };
        let ks = keys(&scale);
        assert_eq!(ks.len(), 2 * (1 + DISTRICTS_PER_WAREHOUSE as usize));
        let rs = rows(&scale);
        // Per warehouse: 1 warehouse + 10 stock + 10 districts * (1 + 5).
        assert_eq!(rs.len(), 2 * (1 + 10 + 10 * 6));
    }

    #[test]
    fn every_row_key_is_in_the_key_set() {
        let scale = TpccScale { warehouses: 1, customers_per_district: 2, items: 3 };
        let ks: std::collections::BTreeSet<LocKey> = keys(&scale).into_iter().collect();
        for (v, _) in rows(&scale) {
            assert!(ks.contains(&locality(v)), "row {v} has unlisted key");
        }
    }
}
