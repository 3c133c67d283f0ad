"""Attributes computed on their first read."""

from __future__ import annotations


class cached_attribute:
    """A non-data descriptor for a per-instance value computed once: the
    first read calls func(obj) and stores the value in obj.__dict__ under
    the attribute's name, which every later read finds first, so the
    descriptor is not consulted again.  It takes no lock, as
    functools.cached_property does before Python 3.12: a field is built and
    read by one thread."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value
