"""Banner-detection oracle: a fresh DOM walk of every page."""

from __future__ import annotations

from typing import Optional

from repro.core.compliance.banners import BannerObservation, _walk_for_banner
from repro.html.parser import parse_html


def detect_banner_unfiltered(
    html: str, site_domain: str = ""
) -> Optional[BannerObservation]:
    """:func:`~repro.core.compliance.banners.detect_banner` without the
    keyword prefilter or the shared parse cache."""
    return _walk_for_banner(parse_html(html), site_domain)
