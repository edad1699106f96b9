//! Table 9 — precision of every fusion method over the whole collection
//! period: average, minimum, and standard deviation of the daily precision.

use bench::{ExpArgs, Table};
use datagen::GeneratedDomain;
use evaluation::evaluate_over_time;

/// Paper Table-9 averages for reference.
const PAPER_AVERAGE: [(&str, f64, f64); 16] = [
    ("Vote", 0.922, 0.887),
    ("Hub", 0.925, 0.885),
    ("AvgLog", 0.921, 0.868),
    ("Invest", 0.797, 0.786),
    ("PooledInvest", 0.871, 0.979),
    ("2-Estimates", 0.910, 0.639),
    ("3-Estimates", 0.923, 0.718),
    ("Cosine", 0.923, 0.880),
    ("TruthFinder", 0.930, 0.818),
    ("AccuPr", 0.922, 0.893),
    ("PopAccu", 0.912, 0.972),
    ("AccuSim", 0.932, 0.866),
    ("AccuFormat", 0.932, 0.866),
    ("AccuSimAttr", 0.941, 0.956),
    ("AccuFormatAttr", 0.941, 0.956),
    ("AccuCopy", 0.884, 0.987),
];

fn paper_avg(method: &str, flight: bool) -> String {
    PAPER_AVERAGE
        .iter()
        .find(|(m, _, _)| *m == method)
        .map(|(_, s, f)| format!("{:.3}", if flight { *f } else { *s }))
        .unwrap_or_else(|| "-".to_string())
}

fn report(domain: &GeneratedDomain, flight: bool) {
    let rows = evaluate_over_time(&domain.collection);
    let mut table = Table::new(
        format!(
            "Table 9 ({}): precision over {} days",
            domain.config.domain,
            domain.collection.num_days()
        ),
        &["method", "avg", "paper avg", "min", "deviation"],
    );
    for row in &rows {
        table.row(&[
            row.method.clone(),
            format!("{:.3}", row.average),
            paper_avg(&row.method, flight),
            format!("{:.3}", row.minimum),
            format!("{:.3}", row.deviation),
        ]);
    }
    table.print();
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Table 9");
    report(&stock, false);
    report(&flight, true);
    println!("Paper: AccuFormatAttr is the best on Stock over the month (.941);");
    println!("       AccuCopy is the best on Flight (.987).");
}
