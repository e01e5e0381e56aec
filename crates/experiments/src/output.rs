//! Writing figure results to disk and to the terminal.

use bnb_stats::csv::series_set_to_string;
use bnb_stats::{SeriesSet, TextTable};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes a figure's data as `<out_dir>/<id>.csv` (long format),
/// `<out_dir>/<id>.dat` (gnuplot blocks) and `<out_dir>/<id>.svg`
/// (self-contained line chart). Returns the CSV path.
///
/// # Errors
/// Propagates filesystem errors (directory creation, writes).
pub fn write_figure(out_dir: &Path, set: &SeriesSet) -> io::Result<PathBuf> {
    fs::create_dir_all(out_dir)?;
    let csv_path = out_dir.join(format!("{}.csv", set.id));
    fs::write(&csv_path, series_set_to_string(set))?;
    let dat_path = out_dir.join(format!("{}.dat", set.id));
    fs::write(dat_path, set.to_plot_text())?;
    let svg_path = out_dir.join(format!("{}.svg", set.id));
    fs::write(svg_path, bnb_stats::svg::render_svg(set))?;
    Ok(csv_path)
}

/// Renders a compact terminal summary of a figure: per series its label,
/// point count, and the y range. For small series (≤ 24 points) the full
/// point list is shown.
#[must_use]
pub fn summarize_figure(set: &SeriesSet) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {}: {} ==\n", set.id, set.title));
    out.push_str(&format!("   x: {}   y: {}\n", set.x_label, set.y_label));
    let mut table = TextTable::new(vec![
        "series".into(),
        "points".into(),
        "y first".into(),
        "y last".into(),
        "y min".into(),
        "y max".into(),
    ]);
    for s in &set.series {
        let first = s.points.first().map_or(f64::NAN, |p| p.y);
        let last = s.points.last().map_or(f64::NAN, |p| p.y);
        table.row(vec![
            s.label.clone(),
            s.len().to_string(),
            format!("{first:.4}"),
            format!("{last:.4}"),
            format!("{:.4}", s.min_y().unwrap_or(f64::NAN)),
            format!("{:.4}", s.max_y().unwrap_or(f64::NAN)),
        ]);
    }
    out.push_str(&table.render());
    // Small figures: print every point.
    if set.series.iter().all(|s| s.len() <= 24) {
        for s in &set.series {
            out.push_str(&format!("   [{}]\n", s.label));
            for p in &s.points {
                out.push_str(&format!(
                    "      x={:<10} y={:.4} ±{:.4}\n",
                    p.x, p.y, p.std_err
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_stats::Series;

    fn demo_set() -> SeriesSet {
        let mut set = SeriesSet::new("figXX", "demo figure", "x", "y");
        set.push(Series::from_xy("a", &[(0.0, 1.0), (1.0, 2.0)]));
        set
    }

    #[test]
    fn writes_csv_dat_and_svg() {
        let dir = std::env::temp_dir().join(format!("bnb_out_test_{}", std::process::id()));
        let set = demo_set();
        let csv = write_figure(&dir, &set).unwrap();
        assert!(csv.exists());
        assert!(dir.join("figXX.dat").exists());
        let content = fs::read_to_string(&csv).unwrap();
        assert!(content.starts_with("series,x,y,std_err"));
        let svg = fs::read_to_string(dir.join("figXX.svg")).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<polyline"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summary_mentions_series_and_range() {
        let s = summarize_figure(&demo_set());
        assert!(s.contains("figXX"));
        assert!(s.contains('a'));
        assert!(s.contains("2.0000"));
        // Small series: full point dump present.
        assert!(s.contains("x=0"));
    }
}
