"""Package exports resolved on first use (PEP 562).

``repro``, ``repro.session`` and ``repro.service`` list their exported
names by defining module instead of importing them, so importing a
package loads none of those modules: ``oovr serve`` and the ``oovr
cache`` commands start without numpy or the simulator, and a name's
module is imported the first time the name is read.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, sources: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    whose exported names ``sources`` lists by defining module.

    A name is imported from its module when it is first read and is
    then bound in the package's namespace, so later reads,
    ``from package import *`` (which reads every ``__all__`` name) and
    ``dir(package)`` see that module's own object.  Any other name
    raises :class:`AttributeError`, as it would on a plain module.
    """
    origin: Dict[str, str] = {
        name: module for module, names in sources.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # The import statement's own path (not importlib's), so that
        # ``python -X importtime`` logs the module like any other.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
