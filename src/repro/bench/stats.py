"""Formatting and summary helpers for benchmark output."""

from typing import Dict, List, Sequence, Tuple

from repro.core.metrics import percentile


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median / mean / p90 / p99 / max of a sample set."""
    if not samples:
        raise ValueError("no samples to summarize")
    return {
        "count": len(samples),
        "median": percentile(samples, 50),
        "mean": sum(samples) / len(samples),
        "p90": percentile(samples, 90),
        "p99": percentile(samples, 99),
        "max": max(samples),
    }


def cdf_points(samples: Sequence[float], fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)) -> List[Tuple[float, float]]:
    """(fraction, value) points of the empirical CDF."""
    if not samples:
        raise ValueError("no samples")
    return [(f, percentile(samples, f * 100)) for f in fractions]


def format_row(values: Sequence, widths: Sequence[int]) -> str:
    cells = []
    for value, width in zip(values, widths):
        if isinstance(value, float):
            text = f"{value:.3f}"
        else:
            text = str(value)
        cells.append(text.rjust(width))
    return "  ".join(cells)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], min_width: int = 8) -> str:
    """A fixed-width text table (benchmarks print these to stdout)."""
    widths = [max(min_width, len(h)) for h in headers]
    for row in rows:
        for i, value in enumerate(row):
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            widths[i] = max(widths[i], len(text))
    lines = [format_row(headers, widths), format_row(["-" * w for w in widths], widths)]
    lines.extend(format_row(row, widths) for row in rows)
    return "\n".join(lines)
