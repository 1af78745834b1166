//! TPC-C schema: row types, identifier packing, scale parameters.
//!
//! Mapping onto DynaStar objects follows the paper's §5.3: each row is an
//! object; the oracle models the workload at district/warehouse
//! granularity, so the locality key of district-scoped rows (district,
//! customers, orders) is their district, and of warehouse-scoped rows
//! (warehouse, stock) their warehouse. The order book, the NEW-ORDER table
//! and the HISTORY table live *inside* their district row, which both
//! matches the paper's "objects that belong to a district are considered
//! part of the district" and lets clients declare a transaction's
//! variables without knowing the next order id.
//!
//! A district row keeps only what the five transactions read: order-id
//! ranges, and the customer and total of each undelivered order. A
//! borrowed row travels to the executing partition and is copied before
//! it is written, so it should not carry the district's order history.
//! Order lines and carrier ids are not stored because no transaction here
//! reads them: STOCK-LEVEL samples its items client-side, and ORDER-STATUS
//! reports the order id and whether it was delivered. HISTORY is a count
//! for the same reason.
//!
//! The immutable `ITEM` catalog is not materialized as objects: item
//! prices/names are a deterministic function of the item id that every
//! client and replica computes locally (documented in DESIGN.md). This
//! preserves the contended access pattern (stock, district, customer) while
//! avoiding 100k read-only rows per replica.

use std::collections::VecDeque;

use dynastar_core::{LocKey, VarId};
use serde::{Deserialize, Serialize};

/// Districts per warehouse (TPC-C specifies 10).
pub const DISTRICTS_PER_WAREHOUSE: u32 = 10;

/// Orders a district's book keeps before delivered ones leave its front.
/// ORDER-STATUS finds a customer's last order only while it is in the book.
/// Undelivered orders always stay, so the book is the last
/// `ORDER_RETENTION` orders or the undelivered ones, whichever is longer.
pub const ORDER_RETENTION: u32 = 24;

/// Scale parameters (defaults are laptop-sized; the access *pattern*
/// matches the spec).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TpccScale {
    /// Number of warehouses.
    pub warehouses: u32,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u32,
    /// Catalog size (spec: 100_000).
    pub items: u32,
}

impl Default for TpccScale {
    fn default() -> Self {
        TpccScale { warehouses: 4, customers_per_district: 60, items: 500 }
    }
}

/// Row-type tags packed into the high bits of a [`VarId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// The warehouse row (YTD amount).
    Warehouse,
    /// The district row, including its order book.
    District,
    /// One customer row.
    Customer,
    /// One stock row per (warehouse, item).
    Stock,
}

const TAG_SHIFT: u64 = 60;
const W_SHIFT: u64 = 36;
const D_SHIFT: u64 = 28;

/// Variable id of a warehouse row.
pub fn warehouse_var(w: u32) -> VarId {
    VarId((0u64 << TAG_SHIFT) | ((w as u64) << W_SHIFT))
}

/// Variable id of a district row.
pub fn district_var(w: u32, d: u32) -> VarId {
    VarId((1u64 << TAG_SHIFT) | ((w as u64) << W_SHIFT) | ((d as u64) << D_SHIFT))
}

/// Variable id of a customer row.
pub fn customer_var(w: u32, d: u32, c: u32) -> VarId {
    VarId((2u64 << TAG_SHIFT) | ((w as u64) << W_SHIFT) | ((d as u64) << D_SHIFT) | c as u64)
}

/// Variable id of a stock row.
pub fn stock_var(w: u32, item: u32) -> VarId {
    VarId((3u64 << TAG_SHIFT) | ((w as u64) << W_SHIFT) | item as u64)
}

/// Decodes the table of a variable id.
pub fn table_of(var: VarId) -> Table {
    match var.0 >> TAG_SHIFT {
        0 => Table::Warehouse,
        1 => Table::District,
        2 => Table::Customer,
        _ => Table::Stock,
    }
}

/// Decodes the warehouse of a variable id.
pub fn warehouse_of(var: VarId) -> u32 {
    ((var.0 >> W_SHIFT) & 0xFF_FFFF) as u32
}

/// Decodes the district of a district/customer variable id.
pub fn district_of(var: VarId) -> u32 {
    ((var.0 >> D_SHIFT) & 0xFF) as u32
}

/// Locality keys: districts occupy the low key space, warehouses a high
/// base, so they never collide.
const WAREHOUSE_KEY_BASE: u64 = 1 << 40;

/// Locality key of a district (the workload-graph vertex of §5.3).
pub fn district_key(w: u32, d: u32) -> LocKey {
    LocKey(w as u64 * DISTRICTS_PER_WAREHOUSE as u64 + d as u64)
}

/// Locality key of a warehouse.
pub fn warehouse_key(w: u32) -> LocKey {
    LocKey(WAREHOUSE_KEY_BASE + w as u64)
}

/// Locality of any TPC-C variable (used as `Application::locality`).
pub fn locality(var: VarId) -> LocKey {
    match table_of(var) {
        Table::Warehouse | Table::Stock => warehouse_key(warehouse_of(var)),
        Table::District | Table::Customer => district_key(warehouse_of(var), district_of(var)),
    }
}

/// Deterministic item price in cents (replaces the read-only ITEM table).
pub fn item_price_cents(item: u32) -> i64 {
    let h = (item as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    100 + (h % 9_900) as i64
}

/// The warehouse row.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarehouseRow {
    /// Year-to-date payment total in cents.
    pub ytd_cents: i64,
}

/// The district row with its order book.
///
/// Order ids are dense and only grow, so the book is an id range: orders
/// `first_kept..next_o_id` are in it, and those below `first_undelivered`
/// were delivered. Only an undelivered order keeps a record, so
/// `undelivered` holds `next_o_id - first_undelivered` entries; the
/// book's fields change only through its methods.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistrictRow {
    /// Year-to-date payment total in cents.
    pub ytd_cents: i64,
    /// Next order id.
    pub(crate) next_o_id: u32,
    /// Oldest order id still in the book.
    pub(crate) first_kept: u32,
    /// Oldest undelivered order id (`next_o_id` when every order was
    /// delivered).
    pub(crate) first_undelivered: u32,
    /// `(customer, total in cents)` of each undelivered order, oldest
    /// first: the NEW-ORDER table, holding what DELIVERY needs.
    pub(crate) undelivered: VecDeque<(u32, i64)>,
    /// History record count (the HISTORY table, insert-only).
    pub history_count: u64,
}

impl Default for DistrictRow {
    fn default() -> Self {
        DistrictRow {
            ytd_cents: 0,
            next_o_id: 1,
            first_kept: 1,
            first_undelivered: 1,
            undelivered: VecDeque::new(),
            history_count: 0,
        }
    }
}

impl DistrictRow {
    /// Appends an undelivered order and returns its id. Delivered orders
    /// leave the book's front while it holds more than [`ORDER_RETENTION`].
    pub fn place_order(&mut self, customer: u32, total_cents: i64) -> u32 {
        let id = self.next_o_id;
        self.next_o_id += 1;
        self.undelivered.push_back((customer, total_cents));
        let retained = self.next_o_id.saturating_sub(ORDER_RETENTION);
        self.first_kept = self.first_kept.max(self.first_undelivered.min(retained));
        id
    }

    /// Removes the oldest undelivered order; returns its id and total.
    pub fn deliver_oldest(&mut self) -> Option<(u32, i64)> {
        let (_, total_cents) = self.undelivered.pop_front()?;
        let id = self.first_undelivered;
        self.first_undelivered += 1;
        Some((id, total_cents))
    }

    /// Whether order `id` was delivered, or `None` if it is not in the book.
    pub fn delivered(&self, id: u32) -> Option<bool> {
        (self.first_kept..self.next_o_id).contains(&id).then_some(id < self.first_undelivered)
    }
}

/// One customer row.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CustomerRow {
    /// Balance in cents.
    pub balance_cents: i64,
    /// Year-to-date payments in cents.
    pub ytd_payment_cents: i64,
    /// Payments made.
    pub payment_count: u32,
    /// Deliveries received.
    pub delivery_count: u32,
    /// Most recent order id, if any.
    pub last_order: Option<u32>,
}

/// One stock row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StockRow {
    /// Quantity on hand.
    pub quantity: i32,
    /// Year-to-date quantity sold.
    pub ytd: u64,
    /// Orders served.
    pub order_count: u32,
    /// Remote orders served.
    pub remote_count: u32,
}

impl Default for StockRow {
    fn default() -> Self {
        StockRow { quantity: 100, ytd: 0, order_count: 0, remote_count: 0 }
    }
}

/// Any TPC-C row value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TpccValue {
    /// A warehouse row.
    Warehouse(WarehouseRow),
    /// A district row.
    District(DistrictRow),
    /// A customer row.
    Customer(CustomerRow),
    /// A stock row.
    Stock(StockRow),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ids_are_unique_across_tables() {
        let ids = [warehouse_var(1), district_var(1, 0), customer_var(1, 0, 0), stock_var(1, 0)];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn encoding_roundtrips() {
        let v = customer_var(7, 3, 42);
        assert_eq!(table_of(v), Table::Customer);
        assert_eq!(warehouse_of(v), 7);
        assert_eq!(district_of(v), 3);
        let s = stock_var(9, 1234);
        assert_eq!(table_of(s), Table::Stock);
        assert_eq!(warehouse_of(s), 9);
    }

    #[test]
    fn localities_follow_the_paper() {
        // District-scoped rows share the district key.
        assert_eq!(locality(district_var(2, 5)), locality(customer_var(2, 5, 9)));
        // Warehouse-scoped rows share the warehouse key.
        assert_eq!(locality(warehouse_var(2)), locality(stock_var(2, 77)));
        // Districts of the same warehouse are distinct vertices.
        assert_ne!(locality(district_var(2, 5)), locality(district_var(2, 6)));
        // Warehouse and district keys never collide.
        assert_ne!(locality(warehouse_var(0)), locality(district_var(0, 0)));
    }

    #[test]
    fn item_prices_are_deterministic_and_positive() {
        assert_eq!(item_price_cents(42), item_price_cents(42));
        for i in 0..1000 {
            let p = item_price_cents(i);
            assert!((100..=10_000).contains(&p), "price {p}");
        }
    }
}
