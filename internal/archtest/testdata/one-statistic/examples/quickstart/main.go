package main

func main() { db.ForceTraversal(0) } // want
