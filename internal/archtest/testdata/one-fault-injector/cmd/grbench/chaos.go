package main

type chaosInjector struct{} // want
