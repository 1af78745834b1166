//! The five TPC-C transactions as deterministic operations over declared
//! rows.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynastar_core::{AccessSets, Application, LocKey, VarId};
use serde::{Deserialize, Serialize};

use super::schema::{
    self, customer_var, district_var, item_price_cents, stock_var, warehouse_var, TpccValue,
};

/// The TPC-C application marker (implements [`Application`]).
#[derive(Debug, Clone, Copy)]
pub struct Tpcc;

/// A requested order line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineRequest {
    /// The item ordered.
    pub item: u32,
    /// The supplying warehouse (1% remote in the standard mix).
    pub supply_w: u32,
    /// The quantity (1–10).
    pub qty: u32,
}

/// The five transaction types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TpccOp {
    /// NEW-ORDER (45% of the mix).
    NewOrder {
        /// Home warehouse.
        w: u32,
        /// Home district.
        d: u32,
        /// Ordering customer.
        c: u32,
        /// 5–15 order lines.
        lines: Vec<LineRequest>,
    },
    /// PAYMENT (43%).
    Payment {
        /// Warehouse receiving the payment.
        w: u32,
        /// District receiving the payment.
        d: u32,
        /// The customer's warehouse (15% remote).
        c_w: u32,
        /// The customer's district.
        c_d: u32,
        /// The paying customer.
        c: u32,
        /// Amount in cents.
        amount_cents: i64,
    },
    /// ORDER-STATUS (4%): read a customer's last order.
    OrderStatus {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Customer.
        c: u32,
    },
    /// DELIVERY (4%), per district: deliver the oldest undelivered order.
    /// The expected customer is declared so the variable set is known
    /// up-front; a mismatch (rare race) skips the delivery.
    Delivery {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Carrier id. No row stores it (no transaction reads it back);
        /// it stays in the op because the generator draws it, and dropping
        /// that draw would move every later random choice.
        carrier: u32,
        /// Customer expected to own the oldest undelivered order.
        expected_customer: u32,
    },
    /// STOCK-LEVEL (4%): count recently-sold items below a threshold.
    StockLevel {
        /// Warehouse.
        w: u32,
        /// District.
        d: u32,
        /// Items to inspect (client-sampled from recent orders).
        items: Vec<u32>,
        /// Low-stock threshold.
        threshold: i32,
    },
}

impl TpccOp {
    /// The variables this transaction reads/writes (what the client
    /// declares when issuing the command).
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            TpccOp::NewOrder { w, d, c, lines } => {
                let mut vars = vec![district_var(*w, *d), customer_var(*w, *d, *c)];
                for l in lines {
                    let sv = stock_var(l.supply_w, l.item);
                    if !vars.contains(&sv) {
                        vars.push(sv);
                    }
                }
                vars
            }
            TpccOp::Payment { w, d, c_w, c_d, c, .. } => {
                vec![warehouse_var(*w), district_var(*w, *d), customer_var(*c_w, *c_d, *c)]
            }
            TpccOp::OrderStatus { w, d, c } => {
                vec![district_var(*w, *d), customer_var(*w, *d, *c)]
            }
            TpccOp::Delivery { w, d, expected_customer, .. } => {
                vec![district_var(*w, *d), customer_var(*w, *d, *expected_customer)]
            }
            TpccOp::StockLevel { w, d, items, .. } => {
                let mut vars = vec![district_var(*w, *d)];
                for &i in items {
                    let sv = stock_var(*w, i);
                    if !vars.contains(&sv) {
                        vars.push(sv);
                    }
                }
                vars
            }
        }
    }
}

/// Transaction results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TpccReply {
    /// NEW-ORDER succeeded: the assigned order id and total in cents.
    OrderPlaced {
        /// The new order's district-scoped id.
        order_id: u32,
        /// Order total in cents.
        total_cents: i64,
    },
    /// PAYMENT succeeded: the customer's new balance.
    Paid {
        /// Customer balance after the payment, in cents.
        balance_cents: i64,
    },
    /// ORDER-STATUS: the last order, if any.
    Status {
        /// Customer balance in cents.
        balance_cents: i64,
        /// `(order id, delivered?)` of the last order.
        last_order: Option<(u32, bool)>,
    },
    /// DELIVERY outcome.
    Delivered {
        /// The delivered order id, or `None` if nothing was undelivered or
        /// the expected customer raced.
        order_id: Option<u32>,
    },
    /// STOCK-LEVEL: items below the threshold.
    StockLow {
        /// Number of inspected items below the threshold.
        count: u32,
    },
    /// A declared row was missing, so a writing transaction wrote no row
    /// (does not happen in a loaded system).
    MissingRow,
}

impl Application for Tpcc {
    type Op = TpccOp;
    /// Values travel behind `Arc` so borrowing a row (which ships it to
    /// the target partition and back) costs a refcount bump, not a deep
    /// copy; executions mutate via copy-on-write.
    type Value = Arc<TpccValue>;
    type Reply = TpccReply;

    fn locality(var: VarId) -> LocKey {
        schema::locality(var)
    }

    fn classify(op: &TpccOp, vars: &[VarId]) -> AccessSets {
        match op {
            // The two read-only transactions of the standard mix (4% each).
            TpccOp::OrderStatus { .. } | TpccOp::StockLevel { .. } => AccessSets::read_only(vars),
            // NEW-ORDER, PAYMENT and DELIVERY mutate every declared row.
            _ => AccessSets::write_all(vars),
        }
    }

    fn execute(op: &TpccOp, vars: &mut Vars) -> TpccReply {
        match op {
            TpccOp::NewOrder { w, d, c, lines } => new_order(*w, *d, *c, lines, vars),
            TpccOp::Payment { w, d, c_w, c_d, c, amount_cents } => {
                payment(*w, *d, *c_w, *c_d, *c, *amount_cents, vars)
            }
            TpccOp::OrderStatus { w, d, c } => order_status(*w, *d, *c, vars),
            TpccOp::Delivery { w, d, expected_customer, .. } => {
                delivery(*w, *d, *expected_customer, vars)
            }
            TpccOp::StockLevel { w, items, threshold, .. } => {
                stock_level(*w, items, *threshold, vars)
            }
        }
    }
}

/// The rows a transaction runs over.
type Vars = BTreeMap<VarId, Option<Arc<TpccValue>>>;

fn row(vars: &Vars, var: VarId) -> Option<&TpccValue> {
    vars.get(&var)?.as_deref()
}

/// The row of `var`, copied first if another holder shares it.
fn row_mut(vars: &mut Vars, var: VarId) -> Option<&mut TpccValue> {
    vars.get_mut(&var)?.as_mut().map(Arc::make_mut)
}

/// Whether every row of `declared` is present. A writing transaction
/// checks this before it writes, so one that answers
/// [`TpccReply::MissingRow`] leaves every row as it found it.
fn all_present(vars: &Vars, declared: impl IntoIterator<Item = VarId>) -> bool {
    declared.into_iter().all(|v| row(vars, v).is_some())
}

fn new_order(w: u32, d: u32, c: u32, lines: &[LineRequest], vars: &mut Vars) -> TpccReply {
    let stock = lines.iter().map(|l| stock_var(l.supply_w, l.item));
    if !all_present(vars, [district_var(w, d), customer_var(w, d, c)].into_iter().chain(stock)) {
        return TpccReply::MissingRow;
    }
    let mut total = 0i64;
    for l in lines {
        let Some(TpccValue::Stock(stock)) = row_mut(vars, stock_var(l.supply_w, l.item)) else {
            return TpccReply::MissingRow;
        };
        stock.quantity -= l.qty as i32;
        if stock.quantity < 10 {
            stock.quantity += 91; // spec's restock rule
        }
        stock.ytd += l.qty as u64;
        stock.order_count += 1;
        if l.supply_w != w {
            stock.remote_count += 1;
        }
        total += item_price_cents(l.item) * l.qty as i64;
    }
    let Some(TpccValue::District(district)) = row_mut(vars, district_var(w, d)) else {
        return TpccReply::MissingRow;
    };
    let order_id = district.place_order(c, total);
    let Some(TpccValue::Customer(customer)) = row_mut(vars, customer_var(w, d, c)) else {
        return TpccReply::MissingRow;
    };
    customer.last_order = Some(order_id);
    TpccReply::OrderPlaced { order_id, total_cents: total }
}

fn payment(w: u32, d: u32, c_w: u32, c_d: u32, c: u32, amount: i64, vars: &mut Vars) -> TpccReply {
    let declared = [warehouse_var(w), district_var(w, d), customer_var(c_w, c_d, c)];
    if !all_present(vars, declared) {
        return TpccReply::MissingRow;
    }
    let Some(TpccValue::Warehouse(wh)) = row_mut(vars, warehouse_var(w)) else {
        return TpccReply::MissingRow;
    };
    wh.ytd_cents += amount;
    let Some(TpccValue::District(district)) = row_mut(vars, district_var(w, d)) else {
        return TpccReply::MissingRow;
    };
    district.ytd_cents += amount;
    district.history_count += 1;
    let Some(TpccValue::Customer(customer)) = row_mut(vars, customer_var(c_w, c_d, c)) else {
        return TpccReply::MissingRow;
    };
    customer.balance_cents -= amount;
    customer.ytd_payment_cents += amount;
    customer.payment_count += 1;
    TpccReply::Paid { balance_cents: customer.balance_cents }
}

fn order_status(w: u32, d: u32, c: u32, vars: &Vars) -> TpccReply {
    let Some(TpccValue::Customer(customer)) = row(vars, customer_var(w, d, c)) else {
        return TpccReply::MissingRow;
    };
    let last_order = match (customer.last_order, row(vars, district_var(w, d))) {
        (Some(oid), Some(TpccValue::District(district))) => {
            district.delivered(oid).map(|delivered| (oid, delivered))
        }
        _ => None,
    };
    TpccReply::Status { balance_cents: customer.balance_cents, last_order }
}

fn delivery(w: u32, d: u32, expected_customer: u32, vars: &mut Vars) -> TpccReply {
    let (district_v, customer_v) = (district_var(w, d), customer_var(w, d, expected_customer));
    if !all_present(vars, [district_v, customer_v]) {
        return TpccReply::MissingRow;
    }
    let Some(TpccValue::District(district)) = row(vars, district_v) else {
        return TpccReply::MissingRow;
    };
    // Nothing to deliver, or the client's view of the oldest order raced
    // with another delivery: skip rather than touch an undeclared customer
    // row. Checked before the row is taken for writing, so a skip copies
    // no shared row.
    if district.undelivered.front().is_none_or(|&(customer, _)| customer != expected_customer) {
        return TpccReply::Delivered { order_id: None };
    }
    let Some(TpccValue::District(district)) = row_mut(vars, district_v) else {
        return TpccReply::MissingRow;
    };
    let Some((order_id, total)) = district.deliver_oldest() else {
        return TpccReply::Delivered { order_id: None };
    };
    let Some(TpccValue::Customer(customer)) = row_mut(vars, customer_v) else {
        return TpccReply::MissingRow;
    };
    customer.balance_cents += total;
    customer.delivery_count += 1;
    TpccReply::Delivered { order_id: Some(order_id) }
}

fn stock_level(w: u32, items: &[u32], threshold: i32, vars: &Vars) -> TpccReply {
    let mut count = 0;
    for &i in items {
        if let Some(TpccValue::Stock(stock)) = row(vars, stock_var(w, i)) {
            if stock.quantity < threshold {
                count += 1;
            }
        }
    }
    TpccReply::StockLow { count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::schema::{CustomerRow, DistrictRow, StockRow, WarehouseRow, ORDER_RETENTION};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn loaded_vars(op: &TpccOp) -> Vars {
        op.vars()
            .into_iter()
            .map(|v| {
                let val = match schema::table_of(v) {
                    schema::Table::Warehouse => TpccValue::Warehouse(WarehouseRow::default()),
                    schema::Table::District => TpccValue::District(DistrictRow::default()),
                    schema::Table::Customer => TpccValue::Customer(CustomerRow::default()),
                    schema::Table::Stock => TpccValue::Stock(StockRow::default()),
                };
                (v, Some(Arc::new(val)))
            })
            .collect()
    }

    fn line(item: u32, supply_w: u32, qty: u32) -> LineRequest {
        LineRequest { item, supply_w, qty }
    }

    #[test]
    fn new_order_assigns_ids_and_updates_stock() {
        let op = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(5, 0, 3), line(9, 0, 2)] };
        let mut vars = loaded_vars(&op);
        let r1 = Tpcc::execute(&op, &mut vars);
        let TpccReply::OrderPlaced { order_id, total_cents } = r1 else { panic!("{r1:?}") };
        assert_eq!(order_id, 1);
        assert_eq!(total_cents, item_price_cents(5) * 3 + item_price_cents(9) * 2);
        let r2 = Tpcc::execute(&op, &mut vars);
        let TpccReply::OrderPlaced { order_id, .. } = r2 else { panic!("{r2:?}") };
        assert_eq!(order_id, 2, "order ids are sequential");
        // Stock decremented (with restock rule).
        let Some(Some(TpccValue::Stock(s))) = vars.get(&stock_var(0, 5)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert_eq!(s.ytd, 6);
        assert_eq!(s.order_count, 2);
    }

    #[test]
    fn new_order_remote_line_counts_remote() {
        let op = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(5, 3, 1)] };
        let mut vars = loaded_vars(&op);
        Tpcc::execute(&op, &mut vars);
        let Some(Some(TpccValue::Stock(s))) = vars.get(&stock_var(3, 5)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert_eq!(s.remote_count, 1);
    }

    #[test]
    fn stock_restocks_below_ten() {
        let op = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(5, 0, 10)] };
        let mut vars = loaded_vars(&op);
        for _ in 0..12 {
            Tpcc::execute(&op, &mut vars);
        }
        let Some(Some(TpccValue::Stock(s))) = vars.get(&stock_var(0, 5)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert!(s.quantity >= 10, "quantity = {}", s.quantity);
    }

    #[test]
    fn payment_flows_through_warehouse_district_customer() {
        let op = TpccOp::Payment { w: 0, d: 1, c_w: 0, c_d: 1, c: 7, amount_cents: 1234 };
        let mut vars = loaded_vars(&op);
        let r = Tpcc::execute(&op, &mut vars);
        assert_eq!(r, TpccReply::Paid { balance_cents: -1234 });
        let Some(Some(TpccValue::Warehouse(w))) = vars.get(&warehouse_var(0)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert_eq!(w.ytd_cents, 1234);
        let Some(Some(TpccValue::District(d))) =
            vars.get(&district_var(0, 1)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert_eq!(d.ytd_cents, 1234);
        assert_eq!(d.history_count, 1);
    }

    #[test]
    fn order_status_reports_last_order() {
        let no = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&no);
        Tpcc::execute(&no, &mut vars);
        let os = TpccOp::OrderStatus { w: 0, d: 0, c: 1 };
        let r = Tpcc::execute(&os, &mut vars);
        assert_eq!(r, TpccReply::Status { balance_cents: 0, last_order: Some((1, false)) });
    }

    #[test]
    fn delivery_processes_oldest_order() {
        let no = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&no);
        Tpcc::execute(&no, &mut vars);
        let del = TpccOp::Delivery { w: 0, d: 0, carrier: 3, expected_customer: 1 };
        let r = Tpcc::execute(&del, &mut vars);
        assert_eq!(r, TpccReply::Delivered { order_id: Some(1) });
        // Customer credited with the order total.
        let Some(Some(TpccValue::Customer(c))) =
            vars.get(&customer_var(0, 0, 1)).map(|o| o.as_deref())
        else {
            panic!()
        };
        assert_eq!(c.balance_cents, item_price_cents(2));
        assert_eq!(c.delivery_count, 1);
        // Nothing left to deliver.
        let r = Tpcc::execute(&del, &mut vars);
        assert_eq!(r, TpccReply::Delivered { order_id: None });
    }

    #[test]
    fn delivery_with_wrong_expected_customer_skips() {
        let no = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&no);
        Tpcc::execute(&no, &mut vars);
        let del = TpccOp::Delivery { w: 0, d: 0, carrier: 3, expected_customer: 2 };
        let mut vars2 = vars.clone();
        vars2
            .insert(customer_var(0, 0, 2), Some(Arc::new(TpccValue::Customer(Default::default()))));
        let r = Tpcc::execute(&del, &mut vars2);
        assert_eq!(r, TpccReply::Delivered { order_id: None });
    }

    fn district(vars: &Vars) -> &DistrictRow {
        match row(vars, district_var(0, 0)) {
            Some(TpccValue::District(row)) => row,
            other => panic!("district row: {other:?}"),
        }
    }

    #[test]
    fn lookups_find_orders_in_a_book_whose_front_was_pruned() {
        let place = |c| TpccOp::NewOrder { w: 0, d: 0, c, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&place(1));
        vars.insert(customer_var(0, 0, 2), Some(Arc::new(TpccValue::Customer(Default::default()))));
        for id in 1..=30 {
            Tpcc::execute(&place(if id == 20 { 2 } else { 1 }), &mut vars);
        }
        let deliver = TpccOp::Delivery { w: 0, d: 0, carrier: 3, expected_customer: 1 };
        for id in 1..=10 {
            assert_eq!(
                Tpcc::execute(&deliver, &mut vars),
                TpccReply::Delivered { order_id: Some(id) }
            );
        }
        // Order 31 pushes the book past ORDER_RETENTION: delivered orders
        // 1..=7 leave its front.
        Tpcc::execute(&place(1), &mut vars);
        let book = district(&vars);
        assert_eq!(book.first_kept, 8);
        assert_eq!(book.next_o_id - book.first_kept, ORDER_RETENTION);
        for id in 0..=33 {
            let expected = (8..=31).contains(&id).then_some(id <= 10);
            assert_eq!(book.delivered(id), expected, "order {id}");
        }
        let status = |c| TpccOp::OrderStatus { w: 0, d: 0, c };
        assert_eq!(
            Tpcc::execute(&status(2), &mut vars),
            TpccReply::Status { balance_cents: 0, last_order: Some((20, false)) }
        );
        assert_eq!(Tpcc::execute(&deliver, &mut vars), TpccReply::Delivered { order_id: Some(11) });
        let TpccReply::Status { last_order, .. } = Tpcc::execute(&status(1), &mut vars) else {
            panic!("status reply")
        };
        assert_eq!(last_order, Some((31, false)));
        let book = district(&vars);
        assert_eq!(book.delivered(11), Some(true));
        assert_eq!(book.delivered(12), Some(false));
    }

    /// One order as the district row stored it before the book became id
    /// ranges.
    #[derive(Clone)]
    struct OldOrder {
        id: u32,
        customer: u32,
        carrier: Option<u32>,
        line_amounts: Vec<i64>,
    }

    /// The customer fields the three book transactions touch.
    #[derive(Clone, Copy, Default)]
    struct OldCustomer {
        balance_cents: i64,
        last_order: Option<u32>,
    }

    /// The reference model: the order book as a deque of shared orders
    /// with their lines, beside the NEW-ORDER table of undelivered ids.
    struct OldBook {
        next_o_id: u32,
        orders: VecDeque<Arc<OldOrder>>,
        new_orders: VecDeque<u32>,
        customers: Vec<OldCustomer>,
    }

    impl OldBook {
        fn new(customers: usize) -> Self {
            OldBook {
                next_o_id: 1,
                orders: VecDeque::new(),
                new_orders: VecDeque::new(),
                customers: vec![OldCustomer::default(); customers],
            }
        }

        fn index(&self, id: u32) -> Option<usize> {
            self.orders.binary_search_by_key(&id, |o| o.id).ok()
        }

        fn new_order(&mut self, c: u32, lines: &[LineRequest]) -> TpccReply {
            let line_amounts: Vec<i64> =
                lines.iter().map(|l| item_price_cents(l.item) * l.qty as i64).collect();
            let total_cents = line_amounts.iter().sum();
            let order_id = self.next_o_id;
            self.next_o_id += 1;
            self.orders.push_back(Arc::new(OldOrder {
                id: order_id,
                customer: c,
                carrier: None,
                line_amounts,
            }));
            self.new_orders.push_back(order_id);
            while self.orders.len() > ORDER_RETENTION as usize {
                if self.orders.front().map(|o| o.carrier.is_some()).unwrap_or(false) {
                    self.orders.pop_front();
                } else {
                    break;
                }
            }
            self.customers[c as usize].last_order = Some(order_id);
            TpccReply::OrderPlaced { order_id, total_cents }
        }

        fn order_status(&self, c: u32) -> TpccReply {
            let customer = self.customers[c as usize];
            let last_order = customer
                .last_order
                .and_then(|oid| self.index(oid).map(|i| (oid, self.orders[i].carrier.is_some())));
            TpccReply::Status { balance_cents: customer.balance_cents, last_order }
        }

        fn delivery(&mut self, carrier: u32, expected_customer: u32) -> TpccReply {
            let Some(&oldest) = self.new_orders.front() else {
                return TpccReply::Delivered { order_id: None };
            };
            let Some(i) = self.index(oldest) else {
                self.new_orders.pop_front();
                return TpccReply::Delivered { order_id: None };
            };
            if self.orders[i].customer != expected_customer {
                return TpccReply::Delivered { order_id: None };
            }
            let order = Arc::make_mut(&mut self.orders[i]);
            order.carrier = Some(carrier);
            let total: i64 = order.line_amounts.iter().sum();
            self.new_orders.pop_front();
            self.customers[expected_customer as usize].balance_cents += total;
            TpccReply::Delivered { order_id: Some(oldest) }
        }
    }

    #[test]
    fn the_compact_book_answers_as_the_book_of_whole_orders_did() {
        const CUSTOMERS: u32 = 40;
        const ITEMS: u32 = 8;
        let (mut pruned_lookups, mut raced, mut empty) = (0, 0, 0);
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut vars: Vars = (0..CUSTOMERS)
                .map(|c| (customer_var(0, 0, c), TpccValue::Customer(CustomerRow::default())))
                .chain((0..ITEMS).map(|i| (stock_var(0, i), TpccValue::Stock(StockRow::default()))))
                .chain([(district_var(0, 0), TpccValue::District(DistrictRow::default()))])
                .map(|(v, row)| (v, Some(Arc::new(row))))
                .collect();
            let mut old = OldBook::new(CUSTOMERS as usize);
            for step in 0..25_000 {
                // Alternate between phases that grow the book and phases
                // that drain it.
                let delivery_pct = if (step / 500) % 2 == 0 { 30 } else { 80 };
                let roll = rng.gen_range(0..100u32);
                let (op, expected) = if roll < delivery_pct {
                    let front = old.new_orders.front().and_then(|&id| old.index(id));
                    let expected_customer = match front {
                        Some(i) if rng.gen_bool(0.9) => old.orders[i].customer,
                        _ => rng.gen_range(0..CUSTOMERS),
                    };
                    match front {
                        None => empty += 1,
                        Some(i) if old.orders[i].customer != expected_customer => raced += 1,
                        Some(_) => {}
                    }
                    let carrier = rng.gen_range(1..=10);
                    let op = TpccOp::Delivery { w: 0, d: 0, carrier, expected_customer };
                    (op, old.delivery(carrier, expected_customer))
                } else if roll < delivery_pct + 10 {
                    let c = rng.gen_range(0..CUSTOMERS);
                    let expected = old.order_status(c);
                    if old.customers[c as usize].last_order.is_some()
                        && matches!(expected, TpccReply::Status { last_order: None, .. })
                    {
                        pruned_lookups += 1;
                    }
                    (TpccOp::OrderStatus { w: 0, d: 0, c }, expected)
                } else {
                    let c = rng.gen_range(0..CUSTOMERS);
                    let lines: Vec<LineRequest> = (0..rng.gen_range(1..=3))
                        .map(|_| line(rng.gen_range(0..ITEMS), 0, rng.gen_range(1..=10)))
                        .collect();
                    let expected = old.new_order(c, &lines);
                    (TpccOp::NewOrder { w: 0, d: 0, c, lines }, expected)
                };
                assert_eq!(
                    Tpcc::execute(&op, &mut vars),
                    expected,
                    "seed {seed} step {step}: {op:?}"
                );
            }
        }
        assert!(pruned_lookups > 100, "ORDER-STATUS on a pruned last order: {pruned_lookups}");
        assert!(raced > 1_000, "DELIVERY with a stale expected customer: {raced}");
        assert!(empty > 1_000, "DELIVERY on an empty book: {empty}");
    }

    /// Executes `op` with each of its declared rows missing in turn, and
    /// asserts it answers `MissingRow` and leaves every other row as it was.
    fn assert_missing_row_writes_nothing(op: &TpccOp, vars: &Vars) {
        for missing in op.vars() {
            let mut run = vars.clone();
            run.insert(missing, None);
            let before = run.clone();
            assert_eq!(Tpcc::execute(op, &mut run), TpccReply::MissingRow, "{missing} missing");
            assert_eq!(run, before, "{missing} missing: another row was written");
        }
    }

    #[test]
    fn a_new_order_with_a_missing_row_writes_none() {
        let op = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(5, 0, 3), line(9, 1, 2)] };
        assert_missing_row_writes_nothing(&op, &loaded_vars(&op));
    }

    #[test]
    fn a_payment_with_a_missing_row_writes_none() {
        let op = TpccOp::Payment { w: 0, d: 1, c_w: 2, c_d: 3, c: 7, amount_cents: 1234 };
        assert_missing_row_writes_nothing(&op, &loaded_vars(&op));
    }

    #[test]
    fn a_delivery_with_a_missing_row_writes_none() {
        let no = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&no);
        Tpcc::execute(&no, &mut vars);
        let op = TpccOp::Delivery { w: 0, d: 0, carrier: 3, expected_customer: 1 };
        assert_missing_row_writes_nothing(&op, &vars);
        // With every row present the same delivery writes both.
        assert_eq!(Tpcc::execute(&op, &mut vars), TpccReply::Delivered { order_id: Some(1) });
    }

    #[test]
    fn a_long_run_keeps_the_book_to_its_undelivered_orders_and_retention() {
        fn entry_size<T>(_: &VecDeque<T>) -> usize {
            std::mem::size_of::<T>()
        }
        let place = TpccOp::NewOrder { w: 0, d: 0, c: 1, lines: vec![line(2, 0, 1)] };
        let mut vars = loaded_vars(&place);
        // Pruning runs at NEW-ORDER, as it always has: the orders a
        // DELIVERY marks delivered since then may stay past the retention.
        let check = |vars: &Vars, delivered_since_new_order: u32| {
            let book = district(vars);
            let undelivered = book.undelivered.len() as u32;
            assert_eq!(undelivered, book.next_o_id - book.first_undelivered);
            let bound = ORDER_RETENTION.max(undelivered + delivered_since_new_order);
            assert!(book.next_o_id - book.first_kept <= bound, "{book:?}");
            assert!(entry_size(&book.undelivered) <= 16);
        };
        let deliver = TpccOp::Delivery { w: 0, d: 0, carrier: 1, expected_customer: 1 };
        let mut delivered = 0;
        for n in 0..100_000u32 {
            assert!(matches!(Tpcc::execute(&place, &mut vars), TpccReply::OrderPlaced { .. }));
            check(&vars, 0);
            // One DELIVERY per 11 NEW-ORDERs (the standard mix's ratio)
            // grows the book; two per NEW-ORDER then drain it.
            let deliveries = if n < 50_000 { u32::from(n % 11 == 0) } else { 2 };
            let mut since = 0;
            for _ in 0..deliveries {
                if let TpccReply::Delivered { order_id: Some(_) } =
                    Tpcc::execute(&deliver, &mut vars)
                {
                    delivered += 1;
                    since += 1;
                }
                check(&vars, since);
            }
        }
        let book = district(&vars);
        assert_eq!(book.next_o_id, 100_001);
        assert_eq!(book.first_undelivered, delivered + 1);
        assert!(book.undelivered.is_empty(), "the second half drains the book");
        assert_eq!(book.next_o_id - book.first_kept, ORDER_RETENTION);
    }

    #[test]
    fn stock_level_counts_low_items() {
        let op = TpccOp::StockLevel { w: 0, d: 0, items: vec![1, 2, 3], threshold: 101 };
        let mut vars = loaded_vars(&op);
        // Default quantity is 100 < 101 → all three count.
        let r = Tpcc::execute(&op, &mut vars);
        assert_eq!(r, TpccReply::StockLow { count: 3 });
        let r = Tpcc::execute(
            &TpccOp::StockLevel { w: 0, d: 0, items: vec![1, 2, 3], threshold: 50 },
            &mut vars,
        );
        assert_eq!(r, TpccReply::StockLow { count: 0 });
    }

    #[test]
    fn vars_cover_all_touched_rows() {
        let op = TpccOp::NewOrder { w: 0, d: 2, c: 5, lines: vec![line(1, 0, 1), line(1, 0, 2)] };
        let vars = op.vars();
        assert!(vars.contains(&district_var(0, 2)));
        assert!(vars.contains(&customer_var(0, 2, 5)));
        assert!(vars.contains(&stock_var(0, 1)));
        assert_eq!(vars.len(), 3, "duplicate stock vars must merge");
        let op = TpccOp::Payment { w: 0, d: 0, c_w: 1, c_d: 2, c: 3, amount_cents: 1 };
        assert_eq!(op.vars().len(), 3);
    }

    #[test]
    fn missing_row_is_reported() {
        let op = TpccOp::Payment { w: 0, d: 0, c_w: 0, c_d: 0, c: 0, amount_cents: 5 };
        let mut vars: BTreeMap<VarId, Option<Arc<TpccValue>>> =
            op.vars().into_iter().map(|v| (v, None)).collect();
        assert_eq!(Tpcc::execute(&op, &mut vars), TpccReply::MissingRow);
    }
}
