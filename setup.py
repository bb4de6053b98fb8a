"""Packaging entry point; metadata lives in ``pyproject.toml``."""

from setuptools import setup

setup()
