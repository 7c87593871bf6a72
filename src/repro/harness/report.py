"""ASCII rendering of the reproduced tables and figures."""


def render_table(title, headers, rows, note=None):
    """Render a simple aligned text table; returns the string."""
    columns = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]

    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out = [title, "=" * len(title), line(headers), line(["-" * w for w in widths])]
    for row in columns[1:]:
        out.append(line(row))
    if note:
        out.append("")
        out.append(note)
    return "\n".join(out)


def render_series(title, x_label, xs, series, fmt="%.2f"):
    """Render named series over a shared x axis as a table."""
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in series:
            value = series[name][i]
            if value is None:
                row.append("crash")
            elif isinstance(value, str):
                # pre-rendered cell (e.g. "FAILED" gaps from a supervised
                # sweep that exhausted retries)
                row.append(value)
            else:
                row.append(fmt % value)
        rows.append(row)
    return render_table(title, headers, rows)


def render_breakdown(title, phase_names, rows):
    """Render per-kernel phase fractions (Figure 5 style)."""
    headers = ["kernel"] + list(phase_names)
    table_rows = []
    for name, fractions in rows:
        table_rows.append(
            [name] + ["%5.1f%%" % (100.0 * fractions.get(p, 0.0)) for p in phase_names]
        )
    return render_table(title, headers, table_rows)
