//! Plain-text table rendering for the table/figure binaries.

/// Render rows as an aligned table. The first row is the header.
pub(crate) fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(cell);
            if i + 1 < row.len() {
                for _ in cell.chars().count()..widths[i] + 2 {
                    out.push(' ');
                }
            }
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// yes/no rendering.
pub(crate) fn yn(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

/// yes/no/- rendering for optional probes.
pub(crate) fn yn_opt(b: Option<bool>) -> String {
    match b {
        Some(true) => "yes".into(),
        Some(false) => "no".into(),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let rows = vec![
            vec!["Engine".to_string(), "Rootless".to_string()],
            vec!["Podman".to_string(), "yes".to_string()],
            vec!["Docker-with-long-name".to_string(), "no".to_string()],
        ];
        let text = render_table(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
        // Columns align: "yes"/"no" start at the same offset.
        let off2 = lines[2].find("yes").unwrap();
        let off3 = lines[3].find("no").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn yn_helpers() {
        assert_eq!(yn(true), "yes");
        assert_eq!(yn_opt(None), "-");
        assert_eq!(yn_opt(Some(false)), "no");
    }
}
