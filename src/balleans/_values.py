"""Frozen value classes, made without the standard library's dataclass module.

Importing that module loads `inspect`, `ast`, `dis` and `tokenize`, about 9 ms
of a fresh process, and applying it `exec`s six methods a class. Here one
`exec` a class makes `__init__`, `__eq__` and `__hash__`; the other methods
are shared by every value class.
"""

_TEMPLATE = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _refuse_set(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def value_class(cls: type) -> type:
    """Make `cls` a frozen value class, as `@dataclass(frozen=True)` does.

    The fields are the names annotated in the class body, in order, and a
    class-level value is that field's default. `__init__` takes the fields
    positionally or by keyword, then calls `__post_init__` if the class has
    one. Instances of the same class are equal when their field tuples are,
    hash as that tuple unless the class defines `__hash__`, print as
    `Qualname(field=value!r, ...)`, and refuse assignment and deletion; the
    class's own code sets a field with `object.__setattr__`.
    """
    names = tuple(cls.__annotations__)
    defaults = {f"_d_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    sets = [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        sets.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__, **defaults}
    exec(_TEMPLATE.format(
        params=", ".join(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names),
        sets="\n".join(sets),
        mine="".join(f"self.{n}, " for n in names),
        theirs="".join(f"other.{n}, " for n in names)), namespace)
    methods = ["__init__", "__eq__"]
    if cls.__dict__.get("__hash__") is None:  # the class body's own stays, as with dataclass
        methods.append("__hash__")
    for method in methods:  # TypeError texts name the class
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _refuse_set, _refuse_delete
    cls.__match_args__ = names
    return cls
