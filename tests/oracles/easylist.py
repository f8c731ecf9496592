"""Filter-list oracle: the exhaustive rule scan the token index replaces."""

from __future__ import annotations

from typing import Optional

from repro.blocklists.easylist import FilterList, MatchContext
from repro.net.url import URL, parse_url, registrable_domain


def matches_linear(filter_list: FilterList, url,
                   context: Optional[MatchContext] = None) -> bool:
    """:meth:`FilterList.matches` by scanning every rule.

    Block rules are the domain-anchored rules for the URL's registrable
    domain plus every rule without an anchor domain; every exception
    rule is checked.
    """
    if not isinstance(url, URL):
        url = parse_url(str(url))
    context = context or MatchContext()
    domain = registrable_domain(url.host)
    blocked = any(
        rule.matches(url, context)
        for rule in filter_list.rules
        if not rule.is_exception and (
            rule.anchor_domain is None
            or registrable_domain(rule.anchor_domain) == domain)
    )
    if not blocked:
        return False
    return not any(rule.matches(url, context)
                   for rule in filter_list.rules if rule.is_exception)
