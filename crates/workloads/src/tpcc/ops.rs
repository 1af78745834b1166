//! The five TPC-C transactions as deterministic operations over declared
//! rows.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dynastar_core::{AccessSets, Application, LocKey, VarId};
use serde::{Deserialize, Serialize};

use super::schema::{
    self, customer_var, district_var, item_price_cents, stock_var, warehouse_var, Order, OrderLine,
    TpccValue, ORDER_RETENTION,
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
        /// Carrier id.
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
    /// A declared row was missing (should not happen in a loaded system).
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

    fn execute(op: &TpccOp, vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>) -> TpccReply {
        match op {
            TpccOp::NewOrder { w, d, c, lines } => new_order(*w, *d, *c, lines, vars),
            TpccOp::Payment { w, d, c_w, c_d, c, amount_cents } => {
                payment(*w, *d, *c_w, *c_d, *c, *amount_cents, vars)
            }
            TpccOp::OrderStatus { w, d, c } => order_status(*w, *d, *c, vars),
            TpccOp::Delivery { w, d, carrier, expected_customer } => {
                delivery(*w, *d, *carrier, *expected_customer, vars)
            }
            TpccOp::StockLevel { w, d, items, threshold } => {
                stock_level(*w, *d, items, *threshold, vars)
            }
        }
    }
}

fn district_mut(
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
    w: u32,
    d: u32,
) -> Option<&mut schema::DistrictRow> {
    match vars.get_mut(&district_var(w, d)) {
        Some(Some(arc)) => match Arc::make_mut(arc) {
            TpccValue::District(row) => Some(row),
            _ => None,
        },
        _ => None,
    }
}

fn customer_mut(
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
    w: u32,
    d: u32,
    c: u32,
) -> Option<&mut schema::CustomerRow> {
    match vars.get_mut(&customer_var(w, d, c)) {
        Some(Some(arc)) => match Arc::make_mut(arc) {
            TpccValue::Customer(row) => Some(row),
            _ => None,
        },
        _ => None,
    }
}

fn stock_mut(
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
    w: u32,
    item: u32,
) -> Option<&mut schema::StockRow> {
    match vars.get_mut(&stock_var(w, item)) {
        Some(Some(arc)) => match Arc::make_mut(arc) {
            TpccValue::Stock(row) => Some(row),
            _ => None,
        },
        _ => None,
    }
}

fn warehouse_mut(
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
    w: u32,
) -> Option<&mut schema::WarehouseRow> {
    match vars.get_mut(&warehouse_var(w)) {
        Some(Some(arc)) => match Arc::make_mut(arc) {
            TpccValue::Warehouse(row) => Some(row),
            _ => None,
        },
        _ => None,
    }
}

fn new_order(
    w: u32,
    d: u32,
    c: u32,
    lines: &[LineRequest],
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
) -> TpccReply {
    // Build the order lines, updating stock.
    let mut order_lines = Vec::with_capacity(lines.len());
    let mut total = 0i64;
    for l in lines {
        let Some(stock) = stock_mut(vars, l.supply_w, l.item) else {
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
        let amount = item_price_cents(l.item) * l.qty as i64;
        total += amount;
        order_lines.push(OrderLine {
            item: l.item,
            supply_w: l.supply_w,
            qty: l.qty,
            amount_cents: amount,
        });
    }
    let Some(district) = district_mut(vars, w, d) else { return TpccReply::MissingRow };
    let order_id = district.next_o_id;
    district.next_o_id += 1;
    district.orders.push_back(Arc::new(Order {
        id: order_id,
        customer: c,
        carrier: None,
        lines: order_lines,
    }));
    district.new_orders.push_back(order_id);
    // Prune old delivered orders to bound the row size.
    while district.orders.len() > ORDER_RETENTION {
        if district.orders.front().map(|o| o.carrier.is_some()).unwrap_or(false) {
            district.orders.pop_front();
        } else {
            break;
        }
    }
    let Some(customer) = customer_mut(vars, w, d, c) else { return TpccReply::MissingRow };
    customer.last_order = Some(order_id);
    TpccReply::OrderPlaced { order_id, total_cents: total }
}

fn payment(
    w: u32,
    d: u32,
    c_w: u32,
    c_d: u32,
    c: u32,
    amount: i64,
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
) -> TpccReply {
    let Some(wh) = warehouse_mut(vars, w) else {
        return TpccReply::MissingRow;
    };
    wh.ytd_cents += amount;
    let Some(district) = district_mut(vars, w, d) else { return TpccReply::MissingRow };
    district.ytd_cents += amount;
    district.history_count += 1;
    let Some(customer) = customer_mut(vars, c_w, c_d, c) else { return TpccReply::MissingRow };
    customer.balance_cents -= amount;
    customer.ytd_payment_cents += amount;
    customer.payment_count += 1;
    TpccReply::Paid { balance_cents: customer.balance_cents }
}

/// Position of order `id` in a district's book. NEW-ORDER appends ids in
/// ascending order and pruning pops from the front, so the book stays
/// sorted by id.
fn order_index(orders: &VecDeque<Arc<Order>>, id: u32) -> Option<usize> {
    orders.binary_search_by_key(&id, |o| o.id).ok()
}

fn order_status(
    w: u32,
    d: u32,
    c: u32,
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
) -> TpccReply {
    let (balance, last) = match vars.get(&customer_var(w, d, c)).map(|o| o.as_deref()) {
        Some(Some(TpccValue::Customer(row))) => (row.balance_cents, row.last_order),
        _ => return TpccReply::MissingRow,
    };
    let last_order = match (last, vars.get(&district_var(w, d)).map(|o| o.as_deref())) {
        (Some(oid), Some(Some(TpccValue::District(row)))) => {
            order_index(&row.orders, oid).map(|i| (oid, row.orders[i].carrier.is_some()))
        }
        _ => None,
    };
    TpccReply::Status { balance_cents: balance, last_order }
}

fn delivery(
    w: u32,
    d: u32,
    carrier: u32,
    expected_customer: u32,
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
) -> TpccReply {
    let Some(district) = district_mut(vars, w, d) else { return TpccReply::MissingRow };
    let Some(&oldest) = district.new_orders.front() else {
        return TpccReply::Delivered { order_id: None };
    };
    let Some(i) = order_index(&district.orders, oldest) else {
        district.new_orders.pop_front();
        return TpccReply::Delivered { order_id: None };
    };
    let order = &mut district.orders[i];
    if order.customer != expected_customer {
        // The client's view of the oldest order raced with another
        // delivery; skip rather than touch an undeclared customer row.
        return TpccReply::Delivered { order_id: None };
    }
    // Copy-on-write at the order level: only the delivered order is
    // cloned (if still shared), never the rest of the book.
    let order = Arc::make_mut(order);
    order.carrier = Some(carrier);
    let total: i64 = order.lines.iter().map(|l| l.amount_cents).sum();
    district.new_orders.pop_front();
    let Some(customer) = customer_mut(vars, w, d, expected_customer) else {
        return TpccReply::MissingRow;
    };
    customer.balance_cents += total;
    customer.delivery_count += 1;
    TpccReply::Delivered { order_id: Some(oldest) }
}

fn stock_level(
    w: u32,
    _d: u32,
    items: &[u32],
    threshold: i32,
    vars: &mut BTreeMap<VarId, Option<Arc<TpccValue>>>,
) -> TpccReply {
    let mut count = 0;
    for &i in items {
        if let Some(Some(TpccValue::Stock(stock))) =
            vars.get(&stock_var(w, i)).map(|o| o.as_deref())
        {
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
    use crate::tpcc::schema::{CustomerRow, DistrictRow, StockRow, WarehouseRow};

    fn loaded_vars(op: &TpccOp) -> BTreeMap<VarId, Option<Arc<TpccValue>>> {
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
        let book = |vars: &BTreeMap<VarId, Option<Arc<TpccValue>>>| match vars
            .get(&district_var(0, 0))
            .map(|o| o.as_deref())
        {
            Some(Some(TpccValue::District(row))) => row.orders.clone(),
            _ => panic!("district row"),
        };
        let orders = book(&vars);
        assert_eq!(orders.front().map(|o| o.id), Some(8));
        assert_eq!(orders.len(), ORDER_RETENTION);
        for id in 0..=33 {
            let scanned = orders.iter().position(|o| o.id == id);
            assert_eq!(order_index(&orders, id), scanned, "order {id}");
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
        let orders = book(&vars);
        let carrier = |id| orders.iter().find(|o| o.id == id).map(|o| o.carrier);
        assert_eq!(carrier(11), Some(Some(3)));
        assert_eq!(carrier(12), Some(None));
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
