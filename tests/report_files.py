"""Readers of the report files the command-line tool writes."""

import csv
import json


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    """The header row and the data rows of a CSV file, as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]
