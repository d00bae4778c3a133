package main

import _ "encoding/gob" // want

import legacy "encoding/gob" // want

var _ = legacy.Register
