"""The base of the value records whose ``__new__`` checks their fields."""

from collections import namedtuple


def record(typename, field_names):
    """A namedtuple base whose ``_make``, and ``_replace`` through it,
    build by the subclass's constructor, so that its checks run."""
    base = namedtuple(typename, field_names)
    make = base._make  # keeps the field-count TypeError
    base._make = classmethod(lambda cls, iterable: cls(*make(iterable)))
    return base
